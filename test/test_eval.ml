(* The eval harness: statistics, artifact serialization, the baseline
   diff gates, and a miniature end-to-end grid run (including the
   injected-handicap bug detector).  Also the CLI regression test for
   [wdmon inspect] on an empty trace, which rides along because it needs
   the built binary. *)

module Stats = Wd_eval.Stats
module Spec = Wd_eval.Spec
module Theory = Wd_eval.Theory
module Runner = Wd_eval.Runner
module Artifact = Wd_eval.Artifact
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let checkf ?eps msg expected got =
  if not (feq ?eps expected got) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected got

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_quantile () =
  let xs = [| 3.0; 1.0; 2.0; 4.0 |] in
  checkf "q0" 1.0 (Stats.quantile xs 0.0);
  checkf "q1" 4.0 (Stats.quantile xs 1.0);
  checkf "median" 2.5 (Stats.quantile xs 0.5);
  (* type-7: rank = q * (n-1); q=0.9 on 4 points -> 2.7 -> 3 + 0.7*(4-3) *)
  checkf "p90" 3.7 (Stats.quantile xs 0.9);
  checkf "singleton" 7.0 (Stats.quantile [| 7.0 |] 0.25);
  Alcotest.(check bool)
    "empty is nan" true
    (Float.is_nan (Stats.quantile [||] 0.5));
  (* input must not be reordered *)
  Alcotest.(check bool) "no mutation" true (xs = [| 3.0; 1.0; 2.0; 4.0 |])

let test_mean_max () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "max" 3.0 (Stats.max_value [| 1.0; 3.0; 2.0 |]);
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Stats.mean [||]))

let test_binomial_law () =
  (* pmf sums to 1; cdf at n is 1 *)
  let n = 9 and p = 0.37 in
  let total = ref 0.0 in
  for k = 0 to n do
    total := !total +. Stats.binom_pmf ~n ~p k
  done;
  checkf "pmf sums to 1" 1.0 !total;
  checkf "cdf at n" 1.0 (Stats.binom_cdf ~n ~p n);
  checkf "pmf 0" (0.63 ** 9.0) (Stats.binom_pmf ~n ~p 0);
  (* monotone cdf *)
  for k = 1 to n do
    if Stats.binom_cdf ~n ~p k < Stats.binom_cdf ~n ~p (k - 1) then
      Alcotest.failf "cdf not monotone at %d" k
  done

let test_binomial_accept () =
  (* With 5 reps at confidence 0.9 and significance 0.005 the test
     rejects iff at most 1 rep succeeded: P(X<=1) ~ 4.6e-4 < 0.005 but
     P(X<=2) ~ 8.6e-3 > 0.005. *)
  let accept successes =
    Stats.binomial_accept ~trials:5 ~successes ~null_p:0.9
      ~significance:0.005
  in
  List.iter
    (fun (s, expect_pass) ->
      let v = accept s in
      Alcotest.(check bool)
        (Printf.sprintf "%d/5 pass" s)
        expect_pass v.Stats.pass;
      if v.Stats.p_value < 0.0 || v.Stats.p_value > 1.0 then
        Alcotest.failf "p-value out of range: %g" v.Stats.p_value)
    [ (0, false); (1, false); (2, true); (3, true); (5, true) ];
  checkf ~eps:1e-6 "p-value 1/5"
    (Stats.binom_cdf ~n:5 ~p:0.9 1)
    (accept 1).Stats.p_value;
  Alcotest.check_raises "trials 0"
    (Invalid_argument "Stats.binomial_accept: trials must be > 0")
    (fun () -> ignore (Stats.binomial_accept ~trials:0 ~successes:0
                         ~null_p:0.9 ~significance:0.005))

(* Degenerate inputs the acceptance machinery must survive without NaN
   or misordered results: boundary quantile ranks, NaN ranks, p at the
   {0, 1} parameter boundary, single-trial laws, and out-of-range k. *)
let test_stats_boundaries () =
  (* quantile: q at the boundaries on a singleton, and a NaN q must be
     rejected, not silently propagated into the rank arithmetic. *)
  checkf "singleton q0" 5.0 (Stats.quantile [| 5.0 |] 0.0);
  checkf "singleton q1" 5.0 (Stats.quantile [| 5.0 |] 1.0);
  Alcotest.check_raises "nan q rejected"
    (Invalid_argument "Stats.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.quantile [| 1.0; 2.0 |] Float.nan));
  Alcotest.check_raises "q over 1 rejected"
    (Invalid_argument "Stats.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.quantile [| 1.0; 2.0 |] 1.5));
  (* binomial pmf at the parameter boundaries: all mass on one point,
     never NaN (the log-space form would produce log 0 here). *)
  checkf "p=0 all mass at 0" 1.0 (Stats.binom_pmf ~n:7 ~p:0.0 0);
  checkf "p=0 elsewhere" 0.0 (Stats.binom_pmf ~n:7 ~p:0.0 3);
  checkf "p=1 all mass at n" 1.0 (Stats.binom_pmf ~n:7 ~p:1.0 7);
  checkf "p=1 elsewhere" 0.0 (Stats.binom_pmf ~n:7 ~p:1.0 6);
  (* out-of-range k is probability zero, not garbage from the falling
     factorial. *)
  checkf "k < 0" 0.0 (Stats.binom_pmf ~n:5 ~p:0.4 (-1));
  checkf "k > n" 0.0 (Stats.binom_pmf ~n:5 ~p:0.4 6);
  checkf "cdf k < 0" 0.0 (Stats.binom_cdf ~n:5 ~p:0.4 (-1));
  checkf "cdf k >= n" 1.0 (Stats.binom_cdf ~n:5 ~p:0.4 5);
  (* n = 1: the two-point law, and the acceptance verdict on it. *)
  checkf "n=1 pmf 0" 0.6 (Stats.binom_pmf ~n:1 ~p:0.4 0);
  checkf "n=1 pmf 1" 0.4 (Stats.binom_pmf ~n:1 ~p:0.4 1);
  let v1 =
    Stats.binomial_accept ~trials:1 ~successes:1 ~null_p:0.9
      ~significance:0.005
  in
  Alcotest.(check bool) "1/1 passes" true v1.Stats.pass;
  (* all-successes / all-failures at the null_p boundaries: p_values are
     exact 1 and 0, never NaN. *)
  let all_good =
    Stats.binomial_accept ~trials:5 ~successes:5 ~null_p:1.0
      ~significance:0.005
  in
  checkf "5/5 under null_p=1" 1.0 all_good.Stats.p_value;
  Alcotest.(check bool) "5/5 passes" true all_good.Stats.pass;
  let all_bad =
    Stats.binomial_accept ~trials:5 ~successes:0 ~null_p:1.0
      ~significance:0.005
  in
  checkf "0/5 under null_p=1" 0.0 all_bad.Stats.p_value;
  Alcotest.(check bool) "0/5 fails" false all_bad.Stats.pass;
  let free =
    Stats.binomial_accept ~trials:5 ~successes:0 ~null_p:0.0
      ~significance:0.005
  in
  Alcotest.(check bool) "0/5 under null_p=0 passes" true free.Stats.pass;
  if Float.is_nan free.Stats.p_value then Alcotest.fail "p-value NaN"

(* ------------------------------------------------------------------ *)
(* Artifact *)

let mk_opt ?(opt_ratio_max = 8.0) ?(opt_pass = true) () =
  {
    Artifact.opt_lb_bytes = 512.0;
    opt_ratio_mean = opt_ratio_max /. 2.0;
    opt_ratio_max;
    opt_ceiling = 120.0;
    opt_pass;
  }

let mk_cell ?(id = "cell-a") ?(accept_pass = true) ?(bytes_pass = true)
    ?(ratio_max = 0.5) ?(err_p90 = 0.04) ?faults ?topology
    ?(opt = Some (mk_opt ())) () =
  {
    Artifact.id;
    family = "dc";
    algorithm = "LS";
    sketch = "fm";
    alpha = 0.1;
    delta = 0.1;
    sites = 4;
    events = 1000;
    workload = "zipf";
    transport = "sim";
    faults;
    topology;
    reps = 5;
    successes = (if accept_pass then 5 else 1);
    accept_pass;
    p_value = (if accept_pass then 1.0 else 0.00046);
    err_mean = 0.03;
    err_p50 = 0.03;
    err_p90;
    err_max = err_p90 +. 0.01;
    bytes_mean = 1234.5;
    ratio_mean = ratio_max /. 2.0;
    ratio_max;
    ratio_ceiling = 2.0;
    bytes_pass;
    opt;
    msgs_mean = 42.0;
    wall_s = 0.125;
    rep_wall_s =
      Some { Artifact.q_p50 = 0.02; q_p90 = 0.03; q_max = 0.031 };
    batch_span_ns =
      Some { Artifact.q_p50 = 250_000.0; q_p90 = 900_000.0; q_max = 1.2e6 };
  }

let mk_artifact cells =
  {
    Artifact.grid = "small";
    base_seed = 42;
    reps = 5;
    significance = 0.005;
    cells;
  }

(* Artifacts written before the informational timing digests existed
   (e.g. the committed baseline) must still load, with the new fields
   reading as None — and a cell without digests must roundtrip as-is. *)
let test_artifact_lenient_timing () =
  let t = mk_artifact [ mk_cell () ] in
  let stripped =
    let open Wd_obs.Json in
    match Artifact.to_json t with
    | Obj fields ->
      Obj
        (List.map
           (function
             | ("cells", List cells) ->
               ( "cells",
                 List
                   (List.map
                      (function
                        | Obj cf ->
                          Obj
                            (List.filter
                               (fun (k, _) ->
                                 k <> "rep_wall_s" && k <> "batch_span_ns"
                                 && k <> "opt" && k <> "topology")
                               cf)
                        | j -> j)
                      cells) )
             | kv -> kv)
           fields)
    | j -> j
  in
  (match Artifact.of_json stripped with
  | Ok t' ->
    List.iter
      (fun (c : Artifact.cell_result) ->
        Alcotest.(check bool) "rep_wall_s is None" true (c.rep_wall_s = None);
        Alcotest.(check bool)
          "batch_span_ns is None" true
          (c.batch_span_ns = None);
        Alcotest.(check bool) "opt is None" true (c.Artifact.opt = None);
        Alcotest.(check bool)
          "pre-opt cells pass the gate trivially" true
          (Artifact.cell_pass c))
      t'.Artifact.cells
  | Error e -> Alcotest.failf "stripped artifact rejected: %s" e);
  let none =
    mk_artifact
      [ { (mk_cell ()) with Artifact.rep_wall_s = None; batch_span_ns = None } ]
  in
  match Artifact.of_json (Artifact.to_json none) with
  | Ok t' -> Alcotest.(check bool) "digest-free roundtrip" true (none = t')
  | Error e -> Alcotest.failf "digest-free artifact rejected: %s" e

let test_artifact_roundtrip () =
  let t =
    mk_artifact
      [ mk_cell (); mk_cell ~id:"cell-b" ~faults:"drop=0.05" ~ratio_max:1.9 () ]
  in
  (match Artifact.of_json (Artifact.to_json t) with
  | Ok t' -> Alcotest.(check bool) "json roundtrip" true (t = t')
  | Error e -> Alcotest.failf "of_json failed: %s" e);
  (* through the actual text rendering too (%.17g floats: lossless) *)
  (match
     Artifact.of_string (Wd_obs.Json.to_string_pretty (Artifact.to_json t))
   with
  | Ok t' -> Alcotest.(check bool) "string roundtrip" true (t = t')
  | Error e -> Alcotest.failf "of_string failed: %s" e);
  Alcotest.(check bool) "passes" true (Artifact.pass t);
  Alcotest.(check bool)
    "failing cell fails artifact" false
    (Artifact.pass (mk_artifact [ mk_cell ~accept_pass:false () ]));
  Alcotest.(check bool)
    "optimality-gap failure fails artifact" false
    (Artifact.pass
       (mk_artifact [ mk_cell ~opt:(Some (mk_opt ~opt_pass:false ())) () ]));
  (* topology and opt survive the roundtrip *)
  let topo =
    mk_artifact [ mk_cell ~id:"cell-t" ~topology:"tree:regions=2" () ]
  in
  match Artifact.of_json (Artifact.to_json topo) with
  | Ok t' -> Alcotest.(check bool) "topology roundtrip" true (topo = t')
  | Error e -> Alcotest.failf "topology cell rejected: %s" e

let test_artifact_version_gate () =
  match Artifact.of_string {|{"version":"wd-eval/999","grid":"x"}|} with
  | Ok _ -> Alcotest.fail "accepted an unknown artifact version"
  | Error e ->
    Alcotest.(check bool)
      "error names the version" true
      (let re = "wd-eval/999" in
       let len = String.length re in
       let rec find i =
         i + len <= String.length e && (String.sub e i len = re || find (i + 1))
       in
       find 0)

let test_artifact_csv () =
  let t = mk_artifact [ mk_cell (); mk_cell ~id:"cell-b" () ] in
  let csv = Artifact.to_csv t in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "header + one row per cell" 3 (List.length lines);
  let header = List.hd lines in
  let cols = String.split_on_char ',' header in
  List.iter
    (fun row ->
      Alcotest.(check int)
        "row width matches header" (List.length cols)
        (List.length (String.split_on_char ',' row)))
    (List.tl lines);
  Alcotest.(check bool)
    "header has id column" true
    (List.mem "id" cols)

let test_diff_gates () =
  let baseline = mk_artifact [ mk_cell () ] in
  let clean_of current = Artifact.clean (Artifact.diff ~baseline ~current) in
  Alcotest.(check bool) "identical is clean" true (clean_of baseline);
  Alcotest.(check bool)
    "missing cell regresses" false
    (clean_of (mk_artifact []));
  Alcotest.(check bool)
    "accuracy flip regresses" false
    (clean_of (mk_artifact [ mk_cell ~accept_pass:false () ]));
  Alcotest.(check bool)
    "bytes flip regresses" false
    (clean_of (mk_artifact [ mk_cell ~bytes_pass:false () ]));
  Alcotest.(check bool)
    "ratio drift past 1.5x regresses" false
    (clean_of (mk_artifact [ mk_cell ~ratio_max:0.8 () ]));
  Alcotest.(check bool)
    "ratio drift under 1.5x is clean" true
    (clean_of (mk_artifact [ mk_cell ~ratio_max:0.7 () ]));
  Alcotest.(check bool)
    "err drift past the gate regresses" false
    (clean_of (mk_artifact [ mk_cell ~err_p90:0.08 () ]));
  Alcotest.(check bool)
    "optimality flip regresses" false
    (clean_of
       (mk_artifact [ mk_cell ~opt:(Some (mk_opt ~opt_pass:false ())) () ]));
  Alcotest.(check bool)
    "optimality drift past 1.5x regresses" false
    (clean_of
       (mk_artifact [ mk_cell ~opt:(Some (mk_opt ~opt_ratio_max:13.0 ())) () ]));
  Alcotest.(check bool)
    "optimality drift under 1.5x is clean" true
    (clean_of
       (mk_artifact [ mk_cell ~opt:(Some (mk_opt ~opt_ratio_max:11.0 ())) () ]));
  Alcotest.(check bool)
    "losing the optimality columns regresses" false
    (clean_of (mk_artifact [ mk_cell ~opt:None () ]));
  (* near-zero baselines get the 0.01 absolute floor *)
  let tiny = mk_artifact [ mk_cell ~err_p90:0.001 () ] in
  Alcotest.(check bool)
    "error floor absorbs noise on tiny baselines" true
    (Artifact.clean
       (Artifact.diff ~baseline:tiny
          ~current:(mk_artifact [ mk_cell ~err_p90:0.009 () ])));
  (* a new cell is a note, not a regression *)
  let d =
    Artifact.diff ~baseline
      ~current:(mk_artifact [ mk_cell (); mk_cell ~id:"cell-new" () ])
  in
  Alcotest.(check bool) "new cell is clean" true (Artifact.clean d);
  Alcotest.(check bool) "new cell is noted" true (d.Artifact.notes <> [])

(* ------------------------------------------------------------------ *)
(* Runner: a miniature grid, and the handicap bug-detector *)

let tiny_config =
  { Runner.default_config with Runner.reps = 5; base_seed = 7 }

let test_runner_exact_cell () =
  let cell = Spec.base ~events:4_000 ~sites:3 (Spec.Dc Dc.EC) in
  let r = Runner.run_cell tiny_config cell in
  Alcotest.(check string) "id" (Spec.id cell) r.Artifact.id;
  Alcotest.(check int) "reps" 5 r.Artifact.reps;
  Alcotest.(check int) "all in band" 5 r.Artifact.successes;
  Alcotest.(check bool) "accept" true r.Artifact.accept_pass;
  Alcotest.(check bool) "bytes" true r.Artifact.bytes_pass;
  checkf "exact tracker has zero error" 0.0 r.Artifact.err_max;
  if r.Artifact.ratio_max > 1.01 then
    Alcotest.failf "exact envelope overshoot: %g" r.Artifact.ratio_max;
  if r.Artifact.msgs_mean <= 0.0 then
    Alcotest.failf "no messages measured: %g" r.Artifact.msgs_mean

let test_runner_sketch_cell_deterministic () =
  let cell = Spec.base ~events:6_000 ~alpha:0.2 (Spec.Dc Dc.LS) in
  let a = Runner.run_cell tiny_config cell in
  let b = Runner.run_cell tiny_config cell in
  (* The informational timing digests are wall-clock measurements, so
     only the logical fields are required to reproduce. *)
  let untimed c =
    {
      c with
      Artifact.wall_s = 0.0;
      rep_wall_s = None;
      batch_span_ns = None;
    }
  in
  Alcotest.(check bool)
    "rerun reproduces everything but wall time" true
    (untimed a = untimed b);
  Alcotest.(check bool) "cell passes" true (Artifact.cell_pass a);
  Alcotest.(check bool)
    "per-rep wall digest measured" true
    (a.Artifact.rep_wall_s <> None);
  Alcotest.(check bool)
    "observe_batch span digest measured" true
    (a.Artifact.batch_span_ns <> None);
  (match a.Artifact.batch_span_ns with
  | Some q ->
    if not (q.Artifact.q_p50 >= 0.0 && q.Artifact.q_p50 <= q.Artifact.q_max)
    then
      Alcotest.failf "span digest out of order: p50 %g max %g"
        q.Artifact.q_p50 q.Artifact.q_max
  | None -> ());
  if a.Artifact.bytes_mean <= 0.0 then Alcotest.fail "no traffic measured"

let test_runner_grid_artifact () =
  let cells =
    [
      Spec.base ~events:3_000 (Spec.Dc Dc.EC);
      Spec.base ~events:3_000 ~alpha:0.2 (Spec.Ds Ds.EDS);
    ]
  in
  let t = Runner.run_grid ~name:"tiny" tiny_config cells in
  Alcotest.(check string) "grid name" "tiny" t.Artifact.grid;
  Alcotest.(check int) "cell count" 2 (List.length t.Artifact.cells);
  Alcotest.(check int) "base seed recorded" 7 t.Artifact.base_seed;
  Alcotest.(check bool) "grid passes" true (Artifact.pass t)

let test_handicap_detected () =
  (* The injected-bug dial must flip the DS acceptance verdict: handicap
     h inflates the count-lag theta by h^2 while the verdict still
     judges against the honest alpha, so err_max lands deterministically
     outside the band (Lemma 2 makes the lag, and hence the failure,
     non-probabilistic). *)
  let cell = Spec.base ~events:30_000 (Spec.Ds Ds.LCO) in
  let honest = Runner.run_cell tiny_config cell in
  Alcotest.(check bool) "honest run passes" true honest.Artifact.accept_pass;
  let rigged =
    Runner.run_cell { tiny_config with Runner.handicap = 2.0 } cell
  in
  Alcotest.(check bool)
    "handicapped run fails acceptance" false rigged.Artifact.accept_pass;
  Alcotest.(check int) "no rep survives" 0 rigged.Artifact.successes;
  if rigged.Artifact.p_value >= 0.005 then
    Alcotest.failf "failure not significant: p = %g" rigged.Artifact.p_value

let test_handicap_detected_mle () =
  (* Same dial on the new grid axes: a concentrated-hashing cell running
     the MLE estimator.  Scaling accuracy by sqrt(h) shrinks the bucket
     count h-fold, so the widened MLE must push enough repetitions out
     of the honest alpha band to flip the binomial verdict — proving the
     acceptance machinery is live for the new cells, not vacuously
     green. *)
  let cell =
    Spec.base ~sketch:Spec.Fmc ~estimator:Spec.Mle ~events:30_000
      (Spec.Dc Dc.LS)
  in
  let honest = Runner.run_cell tiny_config cell in
  Alcotest.(check bool) "honest run passes" true honest.Artifact.accept_pass;
  Alcotest.(check string)
    "artifact records the estimator" "fmc+mle" honest.Artifact.sketch;
  let rigged =
    Runner.run_cell { tiny_config with Runner.handicap = 16.0 } cell
  in
  Alcotest.(check bool)
    "handicapped run fails acceptance" false rigged.Artifact.accept_pass;
  if rigged.Artifact.p_value >= 0.005 then
    Alcotest.failf "failure not significant: p = %g" rigged.Artifact.p_value

(* ------------------------------------------------------------------ *)
(* wdmon inspect on an empty trace (CLI regression) *)

(* Under [dune runtest] the cwd is [_build/default/test]; under
   [dune exec] it is the project root — look in both places. *)
let wdmon =
  List.find_opt Sys.file_exists
    [
      Filename.concat ".." (Filename.concat "bin" "wdmon.exe");
      "_build/default/bin/wdmon.exe";
    ]

let contains text re =
  let len = String.length re in
  let rec find i =
    i + len <= String.length text && (String.sub text i len = re || find (i + 1))
  in
  find 0

(* Run a shell command, capturing combined output; fail the test on a
   nonzero exit unless [expect_fail]. *)
let run_cli ?(expect_fail = false) cmd =
  let out =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wd-cli-%d-%d.out" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let status = Sys.command (cmd ^ " > " ^ Filename.quote out ^ " 2>&1") in
      let text = In_channel.with_open_bin out In_channel.input_all in
      if (status <> 0) <> expect_fail then
        Alcotest.failf "%s exited %d:\n%s" cmd status text;
      text)

let test_inspect_empty_trace () =
  match wdmon with
  | None -> Alcotest.skip ()
  | Some wdmon ->
    let dir = Filename.get_temp_dir_name () in
    let trace =
      Filename.concat dir (Printf.sprintf "wd-empty-%d.jsonl" (Unix.getpid ()))
    in
    let oc = open_out trace in
    close_out oc;
    Fun.protect
      ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
      (fun () ->
        let text =
          run_cli
            (Printf.sprintf "%s inspect %s" (Filename.quote wdmon)
               (Filename.quote trace))
        in
        Alcotest.(check bool)
          "says the trace is empty" true
          (contains text "empty trace"))

(* Record a small simulator run's trace via the CLI; returns the path. *)
let record_trace wdmon ~faults ~tag =
  let trace =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wd-%s-%d.jsonl" tag (Unix.getpid ()))
  in
  let fault_args =
    if faults then " --faults drop=0.05,dup=0.05 --fault-seed 7" else ""
  in
  ignore
    (run_cli
       (Printf.sprintf
          "%s dc --workload http-pairs --scale 0.2 --sites 3 --trace-out %s%s"
          (Filename.quote wdmon) (Filename.quote trace) fault_args));
  trace

(* inspect reads a trace from stdin when the path is "-". *)
let test_inspect_stdin () =
  match wdmon with
  | None -> Alcotest.skip ()
  | Some wdmon ->
    let trace = record_trace wdmon ~faults:false ~tag:"stdin" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
      (fun () ->
        let text =
          run_cli
            (Printf.sprintf "%s inspect - < %s" (Filename.quote wdmon)
               (Filename.quote trace))
        in
        Alcotest.(check bool)
          "renders the site table" true (contains text "mean gap");
        Alcotest.(check bool)
          "names the stdin source" true (contains text "trace summary: -"))

(* The site table's fault columns appear only when the trace actually
   contains fault events. *)
let test_inspect_fault_columns () =
  match wdmon with
  | None -> Alcotest.skip ()
  | Some wdmon ->
    let clean = record_trace wdmon ~faults:false ~tag:"clean" in
    let faulty = record_trace wdmon ~faults:true ~tag:"faulty" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ clean; faulty ])
      (fun () ->
        let inspect path =
          run_cli
            (Printf.sprintf "%s inspect %s" (Filename.quote wdmon)
               (Filename.quote path))
        in
        let clean_text = inspect clean in
        Alcotest.(check bool)
          "clean trace hides fault columns" false
          (contains clean_text "cr/rec");
        Alcotest.(check bool)
          "clean trace still has the site table" true
          (contains clean_text "mean gap");
        let faulty_text = inspect faulty in
        Alcotest.(check bool)
          "faulted trace shows fault columns" true
          (contains faulty_text "cr/rec");
        Alcotest.(check bool)
          "faulted trace reports drops" true
          (contains faulty_text "dropped transmissions"))

(* wdmon top --trace renders the one-shot dashboard frame. *)
let test_top_trace_frame () =
  match wdmon with
  | None -> Alcotest.skip ()
  | Some wdmon ->
    let trace = record_trace wdmon ~faults:false ~tag:"top" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
      (fun () ->
        let text =
          run_cli
            (Printf.sprintf "%s top --trace %s" (Filename.quote wdmon)
               (Filename.quote trace))
        in
        Alcotest.(check bool)
          "renders headroom column" true (contains text "est/thr");
        Alcotest.(check bool)
          "renders status column" true (contains text "status");
        let missing =
          run_cli ~expect_fail:true
            (Printf.sprintf "%s top --trace %s" (Filename.quote wdmon)
               (Filename.quote (trace ^ ".does-not-exist")))
        in
        Alcotest.(check bool)
          "missing trace is a clean error" true
          (contains missing "no such trace file"))

(* Every subcommand's help page renders without doc-markup errors: a
   bad escape in a doc string makes cmdliner print "cmdliner error"
   lines ahead of the page and drop the offending text. *)
let test_help_pages () =
  match wdmon with
  | None -> Alcotest.skip ()
  | Some wdmon ->
    List.iter
      (fun cmd ->
        let text =
          run_cli (Printf.sprintf "%s %s --help=plain" (Filename.quote wdmon) cmd)
        in
        if contains text "cmdliner error" then
          Alcotest.failf "wdmon %s --help:\n%s" cmd text)
      [
        "coord"; "dc"; "ds"; "eval"; "experiment"; "hh"; "inspect"; "list";
        "relay"; "run"; "top"; "workload";
      ]

let () =
  Alcotest.run "eval"
    [
      ( "stats",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "mean/max" `Quick test_mean_max;
          Alcotest.test_case "binomial law" `Quick test_binomial_law;
          Alcotest.test_case "binomial acceptance" `Quick test_binomial_accept;
          Alcotest.test_case "boundary cases" `Quick test_stats_boundaries;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "lenient timing digests" `Quick
            test_artifact_lenient_timing;
          Alcotest.test_case "version gate" `Quick test_artifact_version_gate;
          Alcotest.test_case "csv shape" `Quick test_artifact_csv;
          Alcotest.test_case "diff gates" `Quick test_diff_gates;
        ] );
      ( "runner",
        [
          Alcotest.test_case "exact cell" `Quick test_runner_exact_cell;
          Alcotest.test_case "deterministic rerun" `Quick
            test_runner_sketch_cell_deterministic;
          Alcotest.test_case "grid artifact" `Quick test_runner_grid_artifact;
          Alcotest.test_case "handicap detected" `Slow test_handicap_detected;
          Alcotest.test_case "handicap detected (fmc+mle)" `Slow
            test_handicap_detected_mle;
        ] );
      ( "cli",
        [
          Alcotest.test_case "inspect empty trace" `Quick
            test_inspect_empty_trace;
          Alcotest.test_case "inspect stdin" `Quick test_inspect_stdin;
          Alcotest.test_case "inspect fault columns" `Quick
            test_inspect_fault_columns;
          Alcotest.test_case "top trace frame" `Quick test_top_trace_frame;
          Alcotest.test_case "help pages render cleanly" `Quick
            test_help_pages;
        ] );
    ]
