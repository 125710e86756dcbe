(* Tests for the simulation / measurement harness. *)

module Sim = Whats_different.Simulation
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Query = Wd_view.Query
module Stream = Wd_workload.Stream
module Stream_gen = Wd_workload.Stream_gen
module Http = Wd_workload.Http_trace

let stream = Stream_gen.zipf ~sites:4 ~events:20_000 ~universe:5_000 ()

let test_run_dc_report_consistency () =
  let r =
    Sim.run ~checkpoints:10 (Query.dc ~theta:0.05 ~alpha:0.05 Dc.LS) stream
  in
  Alcotest.(check int) "updates" (Stream.length stream) r.Sim.updates;
  Alcotest.(check int) "total = up + down"
    (r.Sim.bytes_up + r.Sim.bytes_down)
    r.Sim.total_bytes;
  Alcotest.(check int) "flat run pays no backbone" 0 r.Sim.backbone_bytes;
  Alcotest.(check int) "truth" (Stream.distinct_count stream)
    r.Sim.final_truth;
  Alcotest.(check int) "checkpoint count" 10 (Array.length r.Sim.bytes_series);
  (* Series is cumulative, hence nondecreasing, ending at the total. *)
  let last = ref 0 in
  Array.iter
    (fun (_, b) ->
      Alcotest.(check bool) "nondecreasing" true (b >= !last);
      last := b)
    r.Sim.bytes_series;
  Alcotest.(check int) "series ends at total" r.Sim.total_bytes !last;
  let final_err =
    Float.abs (r.Sim.final_estimate -. Float.of_int r.Sim.final_truth)
    /. Float.of_int r.Sim.final_truth
  in
  Alcotest.(check bool)
    (Printf.sprintf "final error %.3f within budget" final_err)
    true (final_err < 0.25)

let test_run_dc_deterministic () =
  let r1 = Sim.run ~seed:5 (Query.dc ~theta:0.05 ~alpha:0.05 Dc.NS) stream in
  let r2 = Sim.run ~seed:5 (Query.dc ~theta:0.05 ~alpha:0.05 Dc.NS) stream in
  Alcotest.(check int) "same bytes" r1.Sim.total_bytes r2.Sim.total_bytes;
  Alcotest.(check (float 0.0)) "same estimate" r1.Sim.final_estimate
    r2.Sim.final_estimate

let test_exact_dc_bytes_matches_ec_run () =
  let r = Sim.run (Query.dc ~theta:0.1 ~alpha:0.1 Dc.EC) stream in
  Alcotest.(check int) "closed form = EC run" (Sim.exact_dc_bytes stream)
    r.Sim.total_bytes

let ds_aux (r : Sim.run) =
  match r.Sim.aux with
  | Sim.Ds_aux { level; sample; max_count_error } ->
    (level, sample, max_count_error)
  | _ -> Alcotest.fail "ds run must carry Ds_aux"

let test_run_ds_report_consistency () =
  let r = Sim.run (Query.ds ~theta:0.3 ~threshold:64 Ds.LCO) stream in
  let _, sample, max_count_error = ds_aux r in
  Alcotest.(check int) "updates" (Stream.length stream) r.Sim.updates;
  Alcotest.(check bool) "sample bounded" true (List.length sample <= 64);
  Alcotest.(check bool)
    (Printf.sprintf "count error %.3f <= theta" max_count_error)
    true
    (max_count_error <= 0.3 +. 1e-9);
  let d = r.Sim.final_estimate in
  let n0 = Float.of_int (Stream.distinct_count stream) in
  Alcotest.(check bool)
    (Printf.sprintf "distinct estimate %.0f ~ %.0f" d n0)
    true
    (Float.abs (d -. n0) /. n0 < 0.5)

let test_exact_ds_bytes_matches_eds_run () =
  let r = Sim.run (Query.ds ~theta:0.3 ~threshold:64 Ds.EDS) stream in
  Alcotest.(check int) "closed form = EDS run" (Sim.exact_ds_bytes stream)
    r.Sim.total_bytes

let test_true_distinct_prefixes () =
  let prefixes = Sim.true_distinct_prefixes stream ~samples:5 in
  Alcotest.(check int) "5 samples" 5 (Array.length prefixes);
  let _, final = prefixes.(4) in
  Alcotest.(check int) "final is global truth"
    (Stream.distinct_count stream)
    final;
  (* Monotone. *)
  let last = ref 0 in
  Array.iter
    (fun (_, d) ->
      Alcotest.(check bool) "monotone" true (d >= !last);
      last := d)
    prefixes

let test_pair_stream_of_requests () =
  let cfg = { Http.default with requests = 5_000 } in
  let reqs = Http.generate cfg in
  let p = Sim.pair_stream_of_requests cfg Http.Per_region reqs in
  Alcotest.(check int) "length" (Array.length reqs) (Sim.pair_stream_length p);
  Alcotest.(check bool) "regions" true (Sim.pair_stream_sites p <= 4)

let hh_config = { Wd_aggregate.Fm_array.rows = 3; cols = 128; bitmaps = 10 }

let test_run_hh_report () =
  let cfg = { Http.default with requests = 5_000 } in
  let reqs = Http.generate cfg in
  let p = Sim.pair_stream_of_requests cfg Http.Per_region reqs in
  let r =
    Sim.run
      (Query.hh ~theta:0.2 ~config:hh_config Dc.LS)
      (Sim.stream_of_pairs p)
  in
  let avg_norm_error, topk_recall, exact_bytes =
    match r.Sim.aux with
    | Sim.Hh_aux { avg_norm_error; topk_recall; exact_bytes } ->
      (avg_norm_error, topk_recall, exact_bytes)
    | _ -> Alcotest.fail "hh run must carry Hh_aux"
  in
  Alcotest.(check int) "updates" (Sim.pair_stream_length p) r.Sim.updates;
  Alcotest.(check bool) "recall in [0,1]" true
    (topk_recall >= 0.0 && topk_recall <= 1.0);
  Alcotest.(check bool) "paid communication" true (r.Sim.total_bytes > 0);
  Alcotest.(check bool) "exact baseline positive" true (exact_bytes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "norm error %.4f small" avg_norm_error)
    true (avg_norm_error < 0.05)

let test_sketch_ablation_runs () =
  (* The generic runner must work over BJKST and HLL too. *)
  let module B = Sim.Make_dc (Wd_sketch.Bjkst) in
  let module H = Sim.Make_dc (Wd_sketch.Hyperloglog) in
  let rb = B.run ~algorithm:Dc.LS ~theta:0.05 ~alpha:0.05 stream in
  let rh = H.run ~algorithm:Dc.LS ~theta:0.05 ~alpha:0.05 stream in
  List.iter
    (fun r ->
      let err =
        Float.abs (r.Sim.dc_final_estimate -. Float.of_int r.Sim.dc_final_truth)
        /. Float.of_int r.Sim.dc_final_truth
      in
      Alcotest.(check bool)
        (Printf.sprintf "final error %.3f acceptable" err)
        true (err < 0.25))
    [ rb; rh ]

let () =
  Alcotest.run "simulation"
    [
      ( "dc",
        [
          Alcotest.test_case "report consistency" `Quick
            test_run_dc_report_consistency;
          Alcotest.test_case "deterministic" `Quick test_run_dc_deterministic;
          Alcotest.test_case "exact bytes closed form" `Quick
            test_exact_dc_bytes_matches_ec_run;
        ] );
      ( "ds",
        [
          Alcotest.test_case "report consistency" `Quick
            test_run_ds_report_consistency;
          Alcotest.test_case "exact bytes closed form" `Quick
            test_exact_ds_bytes_matches_eds_run;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "true prefixes" `Quick test_true_distinct_prefixes;
          Alcotest.test_case "pair stream" `Quick test_pair_stream_of_requests;
        ] );
      ( "hh",
        [ Alcotest.test_case "report" `Quick test_run_hh_report ] );
      ( "ablation",
        [ Alcotest.test_case "other sketches" `Quick test_sketch_ablation_runs ] );
    ]
