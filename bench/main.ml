(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 7) as a printed table, runs the design-choice ablations, and
   measures update throughput with Bechamel (the paper's Section 7.2
   remark: sketch tracking processed ~0.5M items/s, distinct sampling up
   to an order of magnitude faster).

   Usage:
     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- fig5a fig7c  # selected experiments
     dune exec bench/main.exe -- --scale 0.2  # smaller/faster workloads
     dune exec bench/main.exe -- --csv DIR    # also write one CSV per table
     dune exec bench/main.exe -- --list       # available experiment ids
     dune exec bench/main.exe -- --no-throughput

   CI gates:
     dune exec bench/main.exe -- --assert-overhead [--baseline BENCH_PR3.json]
       runs only the observability overhead checks (null-sink guard
       budget, and the disabled-span batch hot path vs the committed
       baseline) and exits nonzero when either exceeds its 5% budget.
     dune exec bench/main.exe -- --assert-concentrated [--baseline ...]
       asserts the concentrated-hashing FM family's batched per-update
       cost beats the committed averaged-FM throughput row.
     dune exec bench/main.exe -- --assert-fanout [--scale S]
       measures the view-registry fan-out (1 / 100 / 10k standing views
       over one stream) and exits nonzero when the marginal per-view
       update cost at 10k views exceeds 0.25x a standalone tracker
       update. *)

module Experiments = Whats_different.Experiments
module Report = Whats_different.Report
module Rng = Wd_hashing.Rng
module Fm = Wd_sketch.Fm
module Fmc = Wd_sketch.Fm_concentrated
module Sampler = Wd_sketch.Distinct_sampler
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Stream_gen = Wd_workload.Stream_gen
module Stream = Wd_workload.Stream
module Sink = Wd_obs.Sink
module Metrics = Wd_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Throughput microbenchmarks (Bechamel) *)

let zipf_items n =
  let rng = Rng.create 7 in
  let dist = Wd_workload.Zipf.create ~n:100_000 ~skew:1.0 in
  Array.init n (fun _ -> Wd_workload.Zipf.sample dist rng)

(* Cycle through [items] one element per call.  Wraps with a compare
   instead of a bit mask so any array length works (the mask variant
   silently mis-iterated non-power-of-two arrays). *)
let cyclic items =
  let n = Array.length items in
  let i = ref 0 in
  fun () ->
    let v = items.(!i) in
    incr i;
    if !i = n then i := 0;
    v

(* Batched benchmark runs process [batch_chunk] updates per closure call;
   reporting divides the measured ns by this to get per-update cost. *)
let batch_chunk = 256

let cyclic_chunks items =
  let n = Array.length items in
  if n mod batch_chunk <> 0 then invalid_arg "cyclic_chunks: ragged chunks";
  cyclic
    (Array.init (n / batch_chunk) (fun c ->
         Array.sub items (c * batch_chunk) batch_chunk))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Tests whose name marks them as batched are divided by [batch_chunk]
   when reported, so every row of the throughput table is ns/update. *)
let runs_per_call name = if contains name "_batch" then batch_chunk else 1

let throughput_tests () =
  let open Bechamel in
  let items = zipf_items 65_536 in
  let fm_stochastic =
    let fam =
      Fm.family_custom ~rng:(Rng.create 1) ~variant:Fm.Stochastic ~bitmaps:128
    in
    let sk = Fm.create fam in
    let next = cyclic items in
    Test.make ~name:"fm-add(stochastic,m=128)"
      (Staged.stage (fun () -> ignore (Fm.add sk (next ()) : bool)))
  in
  let fm_averaged =
    let fam =
      Fm.family_custom ~rng:(Rng.create 2) ~variant:Fm.Averaged ~bitmaps:10
    in
    let sk = Fm.create fam in
    let next = cyclic items in
    Test.make ~name:"fm-add(averaged,m=10)"
      (Staged.stage (fun () -> ignore (Fm.add sk (next ()) : bool)))
  in
  let hll =
    let fam = Wd_sketch.Hyperloglog.family_custom ~rng:(Rng.create 3) ~registers:1024 in
    let sk = Wd_sketch.Hyperloglog.create fam in
    let next = cyclic items in
    Test.make ~name:"hll-add(m=1024)"
      (Staged.stage (fun () -> ignore (Wd_sketch.Hyperloglog.add sk (next ()) : bool)))
  in
  let bjkst =
    let fam = Wd_sketch.Bjkst.family_custom ~rng:(Rng.create 4) ~k:1024 in
    let sk = Wd_sketch.Bjkst.create fam in
    let next = cyclic items in
    Test.make ~name:"bjkst-add(k=1024)"
      (Staged.stage (fun () -> ignore (Wd_sketch.Bjkst.add sk (next ()) : bool)))
  in
  let fmc =
    (* Sized for the same (0.1, 0.1) guarantee the eval grid's default
       cells use; one mixed-tabulation hash per add regardless of m. *)
    let fam = Fmc.family_of_params ~alpha:0.1 ~delta:0.1 ~seed:9 in
    let sk = Fmc.create fam in
    let next = cyclic items in
    Test.make ~name:(Printf.sprintf "fmc-add(m=%d)" (Fmc.buckets fam))
      (Staged.stage (fun () -> ignore (Fmc.add sk (next ()) : bool)))
  in
  let sampler =
    let fam = Sampler.family ~rng:(Rng.create 5) ~threshold:1_000 in
    let s = Sampler.create fam in
    let next = cyclic items in
    Test.make ~name:"sampler-add(T=1000)"
      (Staged.stage (fun () -> Sampler.add s (next ())))
  in
  let dc_observe =
    let fam =
      Fm.family_custom ~rng:(Rng.create 6) ~variant:Fm.Stochastic ~bitmaps:128
    in
    let t = Dc.Fm.create ~algorithm:Dc.LS ~theta:0.03 ~sites:4 ~family:fam () in
    let next = cyclic items in
    let site = ref 0 in
    Test.make ~name:"dc-observe(LS,4 sites)"
      (Staged.stage (fun () ->
           site := (!site + 1) land 3;
           Dc.Fm.observe t ~site:!site (next ())))
  in
  let ds_observe =
    let fam = Sampler.family ~rng:(Rng.create 8) ~threshold:1_000 in
    let t = Ds.create ~algorithm:Ds.LCO ~theta:0.25 ~sites:4 ~family:fam () in
    let next = cyclic items in
    let site = ref 0 in
    Test.make ~name:"ds-observe(LCO,4 sites)"
      (Staged.stage (fun () ->
           site := (!site + 1) land 3;
           Ds.observe t ~site:!site (next ())))
  in
  (* Batched counterparts: one closure call consumes [batch_chunk]
     updates through the add_batch/observe_batch entry points, isolating
     the per-update win from hoisted hash state and bounds checks. *)
  let fm_stochastic_batch =
    let fam =
      Fm.family_custom ~rng:(Rng.create 1) ~variant:Fm.Stochastic ~bitmaps:128
    in
    let sk = Fm.create fam in
    let next = cyclic_chunks items in
    Test.make ~name:"fm-add_batch(stochastic,m=128)"
      (Staged.stage (fun () -> Fm.add_batch sk (next ())))
  in
  let hll_batch =
    let fam =
      Wd_sketch.Hyperloglog.family_custom ~rng:(Rng.create 3) ~registers:1024
    in
    let sk = Wd_sketch.Hyperloglog.create fam in
    let next = cyclic_chunks items in
    Test.make ~name:"hll-add_batch(m=1024)"
      (Staged.stage (fun () -> Wd_sketch.Hyperloglog.add_batch sk (next ())))
  in
  let bjkst_batch =
    let fam = Wd_sketch.Bjkst.family_custom ~rng:(Rng.create 4) ~k:1024 in
    let sk = Wd_sketch.Bjkst.create fam in
    let next = cyclic_chunks items in
    Test.make ~name:"bjkst-add_batch(k=1024)"
      (Staged.stage (fun () -> Wd_sketch.Bjkst.add_batch sk (next ())))
  in
  let fmc_batch =
    let fam = Fmc.family_of_params ~alpha:0.1 ~delta:0.1 ~seed:9 in
    let sk = Fmc.create fam in
    let next = cyclic_chunks items in
    Test.make ~name:(Printf.sprintf "fmc-add_batch(m=%d)" (Fmc.buckets fam))
      (Staged.stage (fun () -> Fmc.add_batch sk (next ())))
  in
  (* Estimate cost, classic vs MLE, on fully loaded sketches: the MLE
     pays a short Newton/bisection loop per call and must stay cheap
     enough for the trackers' per-send refresh. *)
  let fmc_estimate est label =
    let fam =
      Fmc.with_estimator est (Fmc.family_of_params ~alpha:0.1 ~delta:0.1 ~seed:9)
    in
    let sk = Fmc.create fam in
    Fmc.add_batch sk items;
    Test.make ~name:(Printf.sprintf "fmc-estimate(%s)" label)
      (Staged.stage (fun () -> ignore (Fmc.estimate sk : float)))
  in
  let hll_estimate est label =
    let fam =
      Wd_sketch.Hyperloglog.with_estimator est
        (Wd_sketch.Hyperloglog.family_custom ~rng:(Rng.create 3)
           ~registers:1024)
    in
    let sk = Wd_sketch.Hyperloglog.create fam in
    Wd_sketch.Hyperloglog.add_batch sk items;
    Test.make ~name:(Printf.sprintf "hll-estimate(%s,m=1024)" label)
      (Staged.stage (fun () ->
           ignore (Wd_sketch.Hyperloglog.estimate sk : float)))
  in
  let sampler_batch =
    let fam = Sampler.family ~rng:(Rng.create 5) ~threshold:1_000 in
    let s = Sampler.create fam in
    let next = cyclic_chunks items in
    Test.make ~name:"sampler-add_batch(T=1000)"
      (Staged.stage (fun () -> Sampler.add_batch s (next ())))
  in
  let bench_sites = Array.init (Array.length items) (fun j -> j land 3) in
  let dc_observe_batch =
    let fam =
      Fm.family_custom ~rng:(Rng.create 6) ~variant:Fm.Stochastic ~bitmaps:128
    in
    let t = Dc.Fm.create ~algorithm:Dc.LS ~theta:0.03 ~sites:4 ~family:fam () in
    let pos = ref 0 in
    Test.make ~name:"dc-observe_batch(LS,4 sites)"
      (Staged.stage (fun () ->
           Dc.Fm.observe_batch t ~sites:bench_sites ~items ~pos:!pos
             ~len:batch_chunk;
           pos := !pos + batch_chunk;
           if !pos = Array.length items then pos := 0))
  in
  let ds_observe_batch =
    let fam = Sampler.family ~rng:(Rng.create 8) ~threshold:1_000 in
    let t = Ds.create ~algorithm:Ds.LCO ~theta:0.25 ~sites:4 ~family:fam () in
    let pos = ref 0 in
    Test.make ~name:"ds-observe_batch(LCO,4 sites)"
      (Staged.stage (fun () ->
           Ds.observe_batch t ~sites:bench_sites ~items ~pos:!pos
             ~len:batch_chunk;
           pos := !pos + batch_chunk;
           if !pos = Array.length items then pos := 0))
  in
  Test.make_grouped ~name:"throughput"
    [
      fm_stochastic;
      fm_averaged;
      fmc;
      hll;
      bjkst;
      sampler;
      dc_observe;
      ds_observe;
      fm_stochastic_batch;
      fmc_batch;
      hll_batch;
      bjkst_batch;
      sampler_batch;
      dc_observe_batch;
      ds_observe_batch;
      fmc_estimate Wd_sketch.Sketch_intf.Classic "classic";
      fmc_estimate Wd_sketch.Sketch_intf.Mle "mle";
      hll_estimate Wd_sketch.Sketch_intf.Classic "classic";
      hll_estimate Wd_sketch.Sketch_intf.Mle "mle";
    ]

(* Runs one Bechamel group and returns raw [(name, ns_per_call)] rows —
   the shared measurement core of every microbenchmark section. *)
let measure_ols tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2_000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let measured = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (ns :: _) when ns > 0.0 -> measured := (name, ns) :: !measured
      | _ -> ())
    results;
  !measured

(* Measures the throughput group and returns per-update rows
   [(name, ns_per_update, m_updates_per_s)], batch runs normalized by
   [batch_chunk]. *)
let run_throughput () =
  Report.print_section
    "throughput: update cost per primitive (paper 7.2: sampling ~10x faster than sketching)";
  let rows =
    measure_ols (throughput_tests ())
    |> List.map (fun (name, ns) ->
           let ns = ns /. Float.of_int (runs_per_call name) in
           (name, ns, 1e9 /. ns))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Report.print_table ~header:[ "operation"; "ns/update"; "M updates/s" ]
    (List.map
       (fun (name, ns, ips) -> Report.[ S name; F ns; F (ips /. 1e6) ])
       rows);
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* Bytes per run: end-to-end communication of every approximate
   algorithm on one seeded stream, for machine-readable regression
   tracking alongside the throughput numbers. *)

type bytes_row = {
  b_protocol : string;
  b_algorithm : string;
  b_updates : int;
  b_total_bytes : int;
  b_bytes_up : int;
  b_bytes_down : int;
  b_sends : int;
}

let run_bytes ~scale =
  let module Sim = Whats_different.Simulation in
  Report.print_section
    "bytes: total communication per algorithm on a seeded zipf stream";
  let events = max 1_000 (int_of_float (100_000.0 *. scale)) in
  let stream =
    Stream_gen.zipf ~seed:11 ~sites:8 ~events ~universe:(max 500 (events / 2))
      ()
  in
  let dc_rows =
    List.map
      (fun alg ->
        let r =
          Sim.run ~seed:1
            (Wd_view.Query.dc ~theta:0.05 ~alpha:0.1 alg)
            stream
        in
        {
          b_protocol = "dc";
          b_algorithm = Dc.algorithm_to_string alg;
          b_updates = r.Sim.updates;
          b_total_bytes = r.Sim.total_bytes;
          b_bytes_up = r.Sim.bytes_up;
          b_bytes_down = r.Sim.bytes_down;
          b_sends = r.Sim.sends;
        })
      Dc.approximate_algorithms
  in
  let ds_rows =
    List.map
      (fun alg ->
        let r =
          Sim.run ~seed:1
            (Wd_view.Query.ds ~theta:0.5 ~threshold:500 alg)
            stream
        in
        {
          b_protocol = "ds";
          b_algorithm = Ds.algorithm_to_string alg;
          b_updates = r.Sim.updates;
          b_total_bytes = r.Sim.total_bytes;
          b_bytes_up = r.Sim.bytes_up;
          b_bytes_down = r.Sim.bytes_down;
          b_sends = r.Sim.sends;
        })
      Ds.approximate_algorithms
  in
  let rows = dc_rows @ ds_rows in
  Report.print_table
    ~header:[ "protocol"; "algorithm"; "updates"; "bytes"; "up"; "down"; "sends" ]
    (List.map
       (fun r ->
         Report.
           [
             S r.b_protocol;
             S r.b_algorithm;
             I r.b_updates;
             I r.b_total_bytes;
             I r.b_bytes_up;
             I r.b_bytes_down;
             I r.b_sends;
           ])
       rows);
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* Serialized sketch size at equal (alpha, delta): what each broadcast
   of the DC protocols pays per site, the concrete bytes win of the
   concentrated-hashing family over the averaged-FM repetitions. *)

type sketch_bytes_row = {
  k_alpha : float;
  k_delta : float;
  k_fm_bytes : int;
  k_fmc_bytes : int;
}

let run_sketch_bytes () =
  Report.print_section
    "sketch bytes: serialized size at equal (alpha, delta), averaged FM vs concentrated FM";
  let delta = 0.1 in
  let rows =
    List.map
      (fun alpha ->
        let size (module S : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) =
          S.size_bytes (S.of_params ~alpha ~delta ~seed:9)
        in
        {
          k_alpha = alpha;
          k_delta = delta;
          k_fm_bytes = size (module Fm);
          k_fmc_bytes = size (module Fmc);
        })
      [ 0.05; 0.1; 0.2 ]
  in
  Report.print_table
    ~header:[ "alpha"; "delta"; "fm bytes"; "fmc bytes"; "fmc/fm" ]
    (List.map
       (fun r ->
         Report.
           [
             F r.k_alpha;
             F r.k_delta;
             I r.k_fm_bytes;
             I r.k_fmc_bytes;
             S
               (Printf.sprintf "%.2fx"
                  (Float.of_int r.k_fmc_bytes /. Float.of_int r.k_fm_bytes));
           ])
       rows);
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* Site-count scaling: end-to-end LS tracking at k = 10 / 100 / 1000
   sites on one seeded stream. *)

type scaling_row = {
  s_sites : int;
  s_updates : int;
  s_wall_s : float;
  s_total_bytes : int;
  s_sends : int;
}

let run_scaling ~scale =
  let module Sim = Whats_different.Simulation in
  Report.print_section "scaling: LS tracking at k sites";
  let events = max 10_000 (int_of_float (200_000.0 *. scale)) in
  let one ~sites =
    let stream =
      Stream_gen.zipf ~seed:11 ~sites ~events ~universe:(max 500 (events / 2))
        ()
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Sim.run ~seed:1 (Wd_view.Query.dc ~theta:0.05 ~alpha:0.1 Dc.LS) stream
    in
    let wall = Unix.gettimeofday () -. t0 in
    {
      s_sites = sites;
      s_updates = r.Sim.updates;
      s_wall_s = wall;
      s_total_bytes = r.Sim.total_bytes;
      s_sends = r.Sim.sends;
    }
  in
  let rows = [ one ~sites:10; one ~sites:100; one ~sites:1000 ] in
  Report.print_table
    ~header:
      [ "sites"; "updates"; "wall s"; "M updates/s"; "ledger bytes"; "sends" ]
    (List.map
       (fun r ->
         Report.
           [
             I r.s_sites;
             I r.s_updates;
             F r.s_wall_s;
             F (Float.of_int r.s_updates /. r.s_wall_s /. 1e6);
             I r.s_total_bytes;
             I r.s_sends;
           ])
       rows);
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* View fan-out: end-to-end cost of V standing views sharing one
   hash-once stream, and the marginal per-view cost of each extra view.
   Satellites are key-class fanout queries (one residue each, all on one
   modulus), so the registry routes them through a single dispatch
   table; the gate below asserts the resulting marginal cost stays a
   small fraction of a standalone tracker update. *)

type views_row = {
  w_views : int;
  w_updates : int;
  w_wall_s : float;
  w_ns_per_update : float;
  w_marginal_ns : float;
      (* extra ns per update per added view vs the 1-view run; nan at V=1 *)
}

let view_counts = [ 1; 100; 10_000 ]

let fanout_satellites ~views =
  let sats = views - 1 in
  List.init sats (fun i ->
      Wd_view.Query.dc
        ~name:(Printf.sprintf "v%d" (i + 1))
        ~sketch:Wd_view.Query.Fanout
        ~selector:(Wd_view.Query.Key_mod { modulus = sats; residue = i })
        ~theta:0.05 ~alpha:0.1 Dc.NS)

let measure_views ~scale =
  let module Sim = Whats_different.Simulation in
  let events = max 10_000 (int_of_float (200_000.0 *. scale)) in
  let stream =
    Stream_gen.zipf ~seed:11 ~sites:4 ~events ~universe:(max 500 (events / 2))
      ()
  in
  let one views =
    let satellites = if views > 1 then fanout_satellites ~views else [] in
    let t0 = Unix.gettimeofday () in
    let r =
      Sim.run ~seed:1 ~views:satellites
        (Wd_view.Query.dc ~theta:0.05 ~alpha:0.1 Dc.NS)
        stream
    in
    let wall = Unix.gettimeofday () -. t0 in
    (r.Sim.updates, wall)
  in
  (* Warm-up so allocator and page-fault effects don't land on the
     baseline 1-view row. *)
  ignore (one 1);
  let base = ref Float.nan in
  List.map
    (fun views ->
      let updates, wall = one views in
      let ns = wall *. 1e9 /. Float.of_int updates in
      if views = 1 then base := ns;
      let marginal =
        if views = 1 then Float.nan
        else (ns -. !base) /. Float.of_int (views - 1)
      in
      {
        w_views = views;
        w_updates = updates;
        w_wall_s = wall;
        w_ns_per_update = ns;
        w_marginal_ns = marginal;
      })
    view_counts

let print_views_rows rows =
  Report.print_table
    ~header:
      [ "views"; "updates"; "wall s"; "ns/update"; "marginal ns/update/view" ]
    (List.map
       (fun r ->
         Report.
           [
             I r.w_views;
             I r.w_updates;
             F r.w_wall_s;
             F r.w_ns_per_update;
             (if Float.is_nan r.w_marginal_ns then S "baseline"
              else F r.w_marginal_ns);
           ])
       rows)

let run_views ~scale =
  Report.print_section
    "views: V standing views over one hash-once stream (key-class fanout satellites)";
  let rows = measure_views ~scale in
  print_views_rows rows;
  print_newline ();
  rows

(* The fan-out CI gate: at the largest view count, adding one more view
   must cost at most a quarter of a standalone tracker update — i.e. the
   registry's fan-out is strongly sublinear in V, not a per-view scan. *)
let fanout_budget = 0.25

let run_assert_fanout ~scale =
  Report.print_section
    (Printf.sprintf
       "--assert-fanout: marginal view cost at V=%d vs the standalone \
        per-update cost (budget %.2fx)"
       (List.fold_left max 1 view_counts)
       fanout_budget);
  let rows = measure_views ~scale in
  print_views_rows rows;
  let base =
    List.find_opt (fun r -> r.w_views = 1) rows
    |> Option.map (fun r -> r.w_ns_per_update)
  in
  let last = List.nth rows (List.length rows - 1) in
  match base with
  | None ->
    print_endline "no 1-view baseline row measured";
    false
  | Some base_ns ->
    let ratio = last.w_marginal_ns /. base_ns in
    let ok = Float.is_finite ratio && ratio <= fanout_budget in
    Printf.printf
      "marginal cost at %d views: %.3f ns/update/view = %.4fx of a \
       standalone update (%.1f ns): %s\n\n"
      last.w_views last.w_marginal_ns ratio base_ns
      (if ok then "OK" else "OVER BUDGET");
    ok

(* ------------------------------------------------------------------ *)
(* JSON result files (--json PATH): machine-readable snapshot of the
   throughput and bytes runs, written with the in-tree codec.  The
   committed BENCH_*.json baselines use this format; see README.md
   "Performance" for how to regenerate and compare. *)

module Json = Wd_obs.Json

let json_of_results ~scale ~throughput ~bytes ~scaling ~sketch_bytes ~views =
  let fields = [ ("schema", Json.Str "wd-bench/1"); ("scale", Json.Float scale) ] in
  let fields =
    match throughput with
    | None -> fields
    | Some rows ->
      fields
      @ [
          ( "throughput",
            Json.List
              (List.map
                 (fun (name, ns, ips) ->
                   Json.Obj
                     [
                       ("name", Json.Str name);
                       ("ns_per_update", Json.Float ns);
                       ("m_updates_per_s", Json.Float (ips /. 1e6));
                     ])
                 rows) );
        ]
  in
  let fields =
    match bytes with
    | None -> fields
    | Some rows ->
      fields
      @ [
          ( "bytes",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("protocol", Json.Str r.b_protocol);
                       ("algorithm", Json.Str r.b_algorithm);
                       ("updates", Json.Int r.b_updates);
                       ("total_bytes", Json.Int r.b_total_bytes);
                       ("bytes_up", Json.Int r.b_bytes_up);
                       ("bytes_down", Json.Int r.b_bytes_down);
                       ("sends", Json.Int r.b_sends);
                     ])
                 rows) );
        ]
  in
  let fields =
    match sketch_bytes with
    | None -> fields
    | Some rows ->
      fields
      @ [
          ( "sketch_bytes",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("alpha", Json.Float r.k_alpha);
                       ("delta", Json.Float r.k_delta);
                       ("fm_bytes", Json.Int r.k_fm_bytes);
                       ("fmc_bytes", Json.Int r.k_fmc_bytes);
                     ])
                 rows) );
        ]
  in
  let fields =
    match views with
    | None -> fields
    | Some rows ->
      fields
      @ [
          ( "views",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("views", Json.Int r.w_views);
                       ("updates", Json.Int r.w_updates);
                       ("wall_s", Json.Float r.w_wall_s);
                       ("ns_per_update", Json.Float r.w_ns_per_update);
                       ( "marginal_ns_per_update_per_view",
                         if Float.is_nan r.w_marginal_ns then Json.Null
                         else Json.Float r.w_marginal_ns );
                     ])
                 rows) );
        ]
  in
  let fields =
    match scaling with
    | None -> fields
    | Some rows ->
      fields
      @ [
          ("cores", Json.Int (Domain.recommended_domain_count ()));
          ( "scaling",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("sites", Json.Int r.s_sites);
                       ("updates", Json.Int r.s_updates);
                       ("wall_s", Json.Float r.s_wall_s);
                       ( "updates_per_s",
                         Json.Float (Float.of_int r.s_updates /. r.s_wall_s) );
                       ("ledger_bytes", Json.Int r.s_total_bytes);
                       ("sends", Json.Int r.s_sends);
                     ])
                 rows) );
        ]
  in
  Json.Obj fields

let write_json path ~scale ~throughput ~bytes ~scaling ~sketch_bytes ~views =
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (json_of_results ~scale ~throughput ~bytes ~scaling ~sketch_bytes
          ~views));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Sink overhead (Wd_obs acceptance: null sink must cost <= 5%) *)

let sink_overhead_tests () =
  let open Bechamel in
  let items = zipf_items 65_536 in
  let observe_case ~name sink =
    let fam =
      Fm.family_custom ~rng:(Rng.create 6) ~variant:Fm.Stochastic ~bitmaps:128
    in
    let t = Dc.Fm.create ~algorithm:Dc.LS ~theta:0.03 ~sites:4 ~family:fam () in
    Option.iter
      (fun s ->
        Dc.Fm.set_sink t s;
        Wd_net.Network.set_sink (Dc.Fm.network t) s)
      sink;
    let next = cyclic items in
    let site = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           site := (!site + 1) land 3;
           Dc.Fm.observe t ~site:!site (next ())))
  in
  let guard =
    (* The entire per-event cost an inactive sink adds to a hot path is
       one [Sink.enabled] test guarding the event allocation.  Batched 16x
       per run so the harness's closure-call floor doesn't swamp it. *)
    let s = Sink.null in
    Test.make ~name:"null-guard(x16)"
      (Staged.stage (fun () ->
           for _ = 1 to 16 do
             ignore (Sink.enabled (Sys.opaque_identity s))
           done))
  in
  Test.make_grouped ~name:"sink-overhead"
    [
      observe_case ~name:"dc-observe(null)" None;
      observe_case ~name:"dc-observe(ring)" (Some (Sink.ring ~capacity:4096));
      observe_case ~name:"dc-observe(metrics)"
        (Some (Sink.metrics (Metrics.create ())));
      observe_case ~name:"dc-observe(jsonl)" (Some (Sink.jsonl "/dev/null"));
      guard;
    ]

(* Returns whether the null-sink guard landed within its 5% budget
   (vacuously true when the measurement is unavailable, so the default
   figure run never turns benchmark hiccups into failures — the
   [--assert-overhead] gate is what consumes the verdict). *)
let run_sink_overhead () =
  Report.print_section
    "sink overhead: Dc_tracker.observe with trace sinks attached";
  let measured = measure_ols (sink_overhead_tests ()) in
  let find needle =
    List.find_opt (fun (name, _) -> Filename.check_suffix name needle) measured
  in
  match find "dc-observe(null)" with
  | None ->
    print_endline "  (no baseline measurement; skipped)";
    true
  | Some (_, base_ns) ->
    let rows =
      List.sort (fun (a, _) (b, _) -> compare a b) measured
      |> List.filter (fun (name, _) ->
             not (Filename.check_suffix name "null-guard(x16)"))
      |> List.map (fun (name, ns) ->
             let pct = 100.0 *. (ns -. base_ns) /. base_ns in
             Report.
               [
                 S (Filename.basename name);
                 F ns;
                 (if Filename.check_suffix name "dc-observe(null)" then
                    S "baseline"
                  else S (Printf.sprintf "%+.1f%%" pct));
               ])
    in
    Report.print_table ~header:[ "case"; "ns/update"; "vs null sink" ] rows;
    let guard_ok =
      match find "null-guard(x16)" with
      | Some (_, batch_ns) ->
        let guard_ns = batch_ns /. 16.0 in
        let pct = 100.0 *. guard_ns /. base_ns in
        let ok = pct <= 5.0 in
        Printf.printf
          "null-sink guard costs %.2f ns/event = %.2f%% of an observe (budget 5%%): %s\n"
          guard_ns pct
          (if ok then "OK" else "OVER BUDGET");
        ok
      | None -> true
    in
    print_newline ();
    guard_ok

(* ------------------------------------------------------------------ *)
(* Span overhead on the batched hot path, and the --assert-overhead CI
   gate.

   The observability acceptance bound: with no recorder attached the
   span check on [observe_batch] is a single option match per
   [batch_chunk]-update batch, and that disabled path must stay within
   5% of the committed throughput baseline.  The recorder-attached
   cases are informational — they price two clock reads and one event
   per batch. *)

let span_batch_tests ?(with_recorder = true) () =
  let open Bechamel in
  let items = zipf_items 65_536 in
  let bench_sites = Array.init (Array.length items) (fun j -> j land 3) in
  let recorder () =
    Wd_obs.Span.create ~clock:Wd_net.Clock.ns ~emit:(fun _ -> ()) ()
  in
  let dc_case ~name ~spans =
    let fam =
      Fm.family_custom ~rng:(Rng.create 6) ~variant:Fm.Stochastic ~bitmaps:128
    in
    let t = Dc.Fm.create ~algorithm:Dc.LS ~theta:0.03 ~sites:4 ~family:fam () in
    if spans then
      Wd_net.Network.set_spans (Dc.Fm.network t) (Some (recorder ()));
    let pos = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           Dc.Fm.observe_batch t ~sites:bench_sites ~items ~pos:!pos
             ~len:batch_chunk;
           pos := !pos + batch_chunk;
           if !pos = Array.length items then pos := 0))
  in
  let ds_case ~name ~spans =
    let fam = Sampler.family ~rng:(Rng.create 8) ~threshold:1_000 in
    let t = Ds.create ~algorithm:Ds.LCO ~theta:0.25 ~sites:4 ~family:fam () in
    if spans then Wd_net.Network.set_spans (Ds.network t) (Some (recorder ()));
    let pos = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           Ds.observe_batch t ~sites:bench_sites ~items ~pos:!pos
             ~len:batch_chunk;
           pos := !pos + batch_chunk;
           if !pos = Array.length items then pos := 0))
  in
  let off =
    [
      dc_case ~name:"dc-observe_batch(spans off)" ~spans:false;
      ds_case ~name:"ds-observe_batch(spans off)" ~spans:false;
    ]
  in
  let on =
    if with_recorder then
      [
        dc_case ~name:"dc-observe_batch(recorder)" ~spans:true;
        ds_case ~name:"ds-observe_batch(recorder)" ~spans:true;
      ]
    else []
  in
  Test.make_grouped ~name:"span-overhead" (off @ on)

let run_span_overhead () =
  Report.print_section
    "span overhead: observe_batch with the span recorder detached vs attached";
  let per_update =
    measure_ols (span_batch_tests ())
    |> List.map (fun (name, ns) -> (name, ns /. Float.of_int batch_chunk))
  in
  let find needle =
    List.find_opt (fun (name, _) -> Filename.check_suffix name needle)
      per_update
  in
  let row proto off_case on_case =
    match (find off_case, find on_case) with
    | Some (_, off), Some (_, on) ->
      [
        Report.
          [
            S proto;
            F off;
            F on;
            S (Printf.sprintf "%+.1f%%" (100.0 *. (on -. off) /. off));
          ];
      ]
    | _ -> []
  in
  let rows =
    row "dc-observe_batch" "dc-observe_batch(spans off)"
      "dc-observe_batch(recorder)"
    @ row "ds-observe_batch" "ds-observe_batch(spans off)"
        "ds-observe_batch(recorder)"
  in
  Report.print_table
    ~header:[ "hot path"; "spans off ns/up"; "recorder ns/up"; "delta" ]
    rows;
  print_newline ()

(* The baseline's observe_batch throughput rows: [(name, ns_per_update)]
   from a committed wd-bench/1 file. *)
let baseline_batch_rows path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    match Json.of_string s with
    | Error e -> Error e
    | Ok j -> (
      match Json.member "throughput" j with
      | Some (Json.List rows) ->
        Ok
          (List.filter_map
             (fun row ->
               match
                 ( Option.bind (Json.member "name" row) Json.to_str,
                   Option.bind (Json.member "ns_per_update" row) Json.to_float
                 )
               with
               | Some name, Some ns when contains name "observe_batch" ->
                 Some (name, ns)
               | _ -> None)
             rows)
      | _ -> Error "no \"throughput\" rows in baseline"))

let overhead_slack = 1.05

(* Cross-run wall-clock gates flake: the first Bechamel estimate after
   process start is routinely a large outlier (observed 5687 ns for a
   ~50 ns case, settling on the immediate rerun), so the gate discards
   one warm-up round and then judges the best of three estimates —
   the minimum is the noise-robust statistic for "how fast can this
   path go", which is what an overhead bound asks. *)
let run_assert_overhead ~baseline =
  Report.print_section
    (Printf.sprintf
       "--assert-overhead: disabled-span batch hot path vs %s (budget +5%%)"
       baseline);
  match baseline_batch_rows baseline with
  | Error e ->
    Printf.eprintf "cannot load baseline %s: %s\n" baseline e;
    false
  | Ok [] ->
    Printf.eprintf "baseline %s has no observe_batch throughput rows\n"
      baseline;
    false
  | Ok base ->
    (* Baseline names come from the throughput group
       ("dc-observe_batch(LS,4 sites)"); the gate measures the matching
       spans-off case of the span-overhead group. *)
    let case_for name =
      if contains name "dc-observe_batch" then
        Some "dc-observe_batch(spans off)"
      else if contains name "ds-observe_batch" then
        Some "ds-observe_batch(spans off)"
      else None
    in
    let base =
      List.filter_map
        (fun (name, ns) ->
          Option.map (fun case -> (name, case, ns)) (case_for name))
        base
    in
    let gate_tests () = span_batch_tests ~with_recorder:false () in
    ignore (measure_ols (gate_tests ()) : (string * float) list);
    let best = Hashtbl.create 8 in
    for _ = 1 to 3 do
      List.iter
        (fun (name, ns) ->
          let ns = ns /. Float.of_int batch_chunk in
          match Hashtbl.find_opt best name with
          | Some prev when prev <= ns -> ()
          | _ -> Hashtbl.replace best name ns)
        (measure_ols (gate_tests ()))
    done;
    let ok = ref true in
    let rows =
      List.map
        (fun (bname, case, base_ns) ->
          let measured =
            Hashtbl.fold
              (fun name ns acc ->
                if Filename.check_suffix name case then Some ns else acc)
              best None
          in
          match measured with
          | None ->
            ok := false;
            Report.[ S bname; F base_ns; S "-"; S "-"; S "NOT MEASURED" ]
          | Some ns ->
            let ratio = ns /. base_ns in
            if ratio > overhead_slack then ok := false;
            Report.
              [
                S bname;
                F base_ns;
                F ns;
                S (Printf.sprintf "%.3fx" ratio);
                S (if ratio <= overhead_slack then "OK" else "OVER BUDGET");
              ])
        base
    in
    Report.print_table
      ~header:[ "baseline row"; "baseline ns"; "best-of-3 ns"; "ratio"; "verdict" ]
      rows;
    print_newline ();
    !ok

(* ------------------------------------------------------------------ *)
(* --assert-concentrated: the tentpole's perf claim as a CI gate.  The
   concentrated-hashing FM family pays one mixed-tabulation hash per
   update where the averaged FM family pays one weak hash and one bitmap
   update per repetition, so its batched per-update cost must land below
   the committed averaged-FM throughput baseline — not merely within a
   slack band of it. *)

(* The ns/update of one exactly-named throughput row of a committed
   wd-bench/1 file. *)
let baseline_throughput_row path ~name:wanted =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    match Json.of_string s with
    | Error e -> Error e
    | Ok j -> (
      match Json.member "throughput" j with
      | Some (Json.List rows) -> (
        let found =
          List.find_map
            (fun row ->
              match
                ( Option.bind (Json.member "name" row) Json.to_str,
                  Option.bind (Json.member "ns_per_update" row) Json.to_float
                )
              with
              | Some name, Some ns when contains name wanted -> Some ns
              | _ -> None)
            rows
        in
        match found with
        | Some ns -> Ok ns
        | None -> Error (Printf.sprintf "no %S row in baseline" wanted))
      | _ -> Error "no \"throughput\" rows in baseline"))

let concentrated_gate_tests () =
  let open Bechamel in
  let items = zipf_items 65_536 in
  let fam = Fmc.family_of_params ~alpha:0.1 ~delta:0.1 ~seed:9 in
  let sk = Fmc.create fam in
  let next = cyclic_chunks items in
  Test.make_grouped ~name:"concentrated"
    [
      Test.make ~name:"fmc-add_batch(gate)"
        (Staged.stage (fun () -> Fmc.add_batch sk (next ())));
    ]

let averaged_fm_row = "fm-add(averaged,m=10)"

let run_assert_concentrated ~baseline =
  Report.print_section
    (Printf.sprintf
       "--assert-concentrated: fmc-add_batch ns/update vs the committed %s row of %s"
       averaged_fm_row baseline);
  match baseline_throughput_row baseline ~name:averaged_fm_row with
  | Error e ->
    Printf.eprintf "cannot load baseline %s: %s\n" baseline e;
    false
  | Ok base_ns ->
    (* Same noise discipline as --assert-overhead: discard one warm-up
       round, judge the best of three estimates. *)
    ignore (measure_ols (concentrated_gate_tests ()) : (string * float) list);
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      List.iter
        (fun (_, ns) -> best := Float.min !best (ns /. Float.of_int batch_chunk))
        (measure_ols (concentrated_gate_tests ()))
    done;
    let measured = !best in
    let ok = Float.is_finite measured && measured < base_ns in
    Report.print_table
      ~header:[ "case"; "baseline ns"; "best-of-3 ns"; "verdict" ]
      [
        Report.
          [
            S "fmc-add_batch vs averaged fm-add";
            F base_ns;
            F measured;
            S (if ok then "FASTER" else "NOT FASTER");
          ];
      ];
    print_newline ();
    ok

(* ------------------------------------------------------------------ *)
(* Driver *)

let write_csv dir (t : Experiments.table) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (t.Experiments.id ^ ".csv") in
  let oc = open_out path in
  output_string oc
    (Report.render_csv ~header:t.Experiments.header t.Experiments.rows);
  output_char oc '\n';
  close_out oc

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1.0 in
  let with_throughput = ref true in
  let csv_dir = ref None in
  let json_path = ref None in
  let assert_overhead = ref false in
  let assert_concentrated = ref false in
  let assert_fanout = ref false in
  let baseline = ref "BENCH_PR3.json" in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--no-throughput" :: rest ->
      with_throughput := false;
      parse rest
    | "--assert-overhead" :: rest ->
      assert_overhead := true;
      parse rest
    | "--assert-concentrated" :: rest ->
      assert_concentrated := true;
      parse rest
    | "--assert-fanout" :: rest ->
      assert_fanout := true;
      parse rest
    | "--baseline" :: path :: rest ->
      baseline := path;
      parse rest
    | "--list" :: _ ->
      List.iter print_endline
        ("throughput" :: "bytes" :: "scaling" :: "sketch-bytes" :: "views"
       :: "sink-overhead" :: "span-overhead" :: Experiments.ids);
      exit 0
    | id :: rest ->
      selected := id :: !selected;
      parse rest
  in
  parse args;
  let options = { Experiments.default_options with scale = !scale } in
  let emit t =
    Experiments.print t;
    Option.iter (fun dir -> write_csv dir t) !csv_dir
  in
  let throughput_rows = ref None in
  let bytes_rows = ref None in
  let scaling_rows = ref None in
  let sketch_bytes_rows = ref None in
  let views_rows = ref None in
  let do_throughput () = throughput_rows := Some (run_throughput ()) in
  let do_bytes () = bytes_rows := Some (run_bytes ~scale:!scale) in
  let do_scaling () = scaling_rows := Some (run_scaling ~scale:!scale) in
  let do_sketch_bytes () = sketch_bytes_rows := Some (run_sketch_bytes ()) in
  let do_views () = views_rows := Some (run_views ~scale:!scale) in
  let selected = List.rev !selected in
  let t0 = Unix.gettimeofday () in
  let gate_ok = ref true in
  let run_gates () =
    if !assert_overhead then begin
      let sink_ok = run_sink_overhead () in
      let span_ok = run_assert_overhead ~baseline:!baseline in
      if not (sink_ok && span_ok) then gate_ok := false
    end;
    if !assert_concentrated then
      if not (run_assert_concentrated ~baseline:!baseline) then
        gate_ok := false;
    if !assert_fanout then
      if not (run_assert_fanout ~scale:!scale) then gate_ok := false
  in
  (match selected with
  | [] when !assert_overhead || !assert_concentrated || !assert_fanout ->
    (* Gate-only mode (the CI bench steps): skip the figure
       reproduction, just run the requested assertions. *)
    run_gates ()
  | [] ->
    Printf.printf
      "Reproducing all figures of 'What's Different' (ICDE 2006) at scale %g\n"
      !scale;
    List.iter emit (Experiments.all ~options ());
    if !with_throughput then (
      do_throughput ();
      do_bytes ();
      do_scaling ();
      do_sketch_bytes ();
      do_views ();
      ignore (run_sink_overhead () : bool);
      run_span_overhead ())
  | ids ->
    List.iter
      (fun id ->
        if id = "throughput" then do_throughput ()
        else if id = "bytes" then do_bytes ()
        else if id = "scaling" then do_scaling ()
        else if id = "sketch-bytes" then do_sketch_bytes ()
        else if id = "views" then do_views ()
        else if id = "sink-overhead" then ignore (run_sink_overhead () : bool)
        else if id = "span-overhead" then run_span_overhead ()
        else
          match Experiments.by_id id with
          | Some f -> emit (f options)
          | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" id;
            exit 1)
      ids;
    run_gates ());
  Option.iter
    (fun path ->
      write_json path ~scale:!scale ~throughput:!throughput_rows
        ~bytes:!bytes_rows ~scaling:!scaling_rows
        ~sketch_bytes:!sketch_bytes_rows ~views:!views_rows)
    !json_path;
  Printf.printf "total wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if not !gate_ok then (
    prerr_endline "overhead assertion FAILED";
    exit 1)
