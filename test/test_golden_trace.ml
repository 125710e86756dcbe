(* Golden-trace regression tests: fixed-seed DC and DS runs pinned to
   exact byte totals and event counts captured from the reliable-channel
   implementation.  A protocol-cost regression — or any fault-injection
   change that leaks into the no-fault path — fails these loudly instead
   of silently shifting every benchmark.  The DC constants were
   re-pinned when the linear-counting crossover became a blend
   (Estimators.linear_blend): the ramp-up estimates changed, so the
   threshold-crossing counts moved with them. *)

module Sim = Whats_different.Simulation
module Query = Wd_view.Query
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Network = Wd_net.Network
module Sink = Wd_obs.Sink
module Summary = Wd_obs.Summary
module Stream_gen = Wd_workload.Stream_gen

let golden_stream () =
  Stream_gen.zipf ~seed:11 ~sites:4 ~events:20_000 ~universe:6_000 ()

let check_kinds ~expected (summary : Summary.t) =
  List.iter
    (fun (kind, count) ->
      let got =
        Option.value ~default:0 (List.assoc_opt kind summary.kind_counts)
      in
      Alcotest.(check int) (Printf.sprintf "%s events" kind) count got)
    expected;
  (* And nothing unexpected appeared (e.g. stray fault events). *)
  List.iter
    (fun (kind, count) ->
      if not (List.mem_assoc kind expected) then
        Alcotest.failf "unexpected event kind %s (%d occurrences)" kind count)
    summary.kind_counts

let dc_ls_unicast () =
  let ring = Sink.ring ~capacity:8192 in
  let run =
    Sim.run ~seed:7 ~sink:ring
      (Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS)
      (golden_stream ())
  in
  Alcotest.(check int) "bytes up" 14204 run.Sim.bytes_up;
  Alcotest.(check int) "bytes down" 19140 run.Sim.bytes_down;
  Alcotest.(check int) "total bytes" 33344 run.Sim.total_bytes;
  Alcotest.(check int) "sends" 449 run.Sim.sends;
  Alcotest.(check (float 1e-6)) "estimate" 3362.014438 run.Sim.final_estimate;
  Alcotest.(check int) "truth" 3536 run.Sim.final_truth;
  let summary = Summary.of_events (Sink.ring_contents ring) in
  check_kinds summary
    ~expected:
      [
        ("estimate_update", 445);
        ("message", 898);
        ("resync", 449);
        ("run_meta", 1);
        ("sketch_sent", 449);
        ("threshold_crossed", 449);
      ];
  Alcotest.(check int) "trace bytes up = ledger" 14204 summary.Summary.bytes_up;
  Alcotest.(check int) "trace bytes down = ledger" 19140
    summary.Summary.bytes_down;
  Alcotest.(check int) "medium bytes" 0 summary.Summary.medium_bytes

(* The concentrated single-hash sketch under the same LS run: pins the
   mixed-tabulation tables (layout and draw order) and the PCSA split
   end to end, which the FM and sampler rows above never touch. *)
let dc_ls_fmc () =
  let ring = Sink.ring ~capacity:8192 in
  let run =
    Sim.run ~seed:7 ~sink:ring
      (Query.dc ~sketch:Query.Fmc ~theta:0.03 ~alpha:0.07 Dc.LS)
      (golden_stream ())
  in
  Alcotest.(check int) "bytes up" 11132 run.Sim.bytes_up;
  Alcotest.(check int) "bytes down" 14828 run.Sim.bytes_down;
  Alcotest.(check int) "total bytes" 25960 run.Sim.total_bytes;
  Alcotest.(check int) "sends" 433 run.Sim.sends;
  Alcotest.(check (float 1e-6)) "estimate" 3521.874391 run.Sim.final_estimate;
  Alcotest.(check int) "truth" 3536 run.Sim.final_truth;
  let summary = Summary.of_events (Sink.ring_contents ring) in
  check_kinds summary
    ~expected:
      [
        ("estimate_update", 429);
        ("message", 866);
        ("resync", 433);
        ("run_meta", 1);
        ("sketch_sent", 433);
        ("threshold_crossed", 433);
      ];
  Alcotest.(check int) "trace bytes up = ledger" 11132 summary.Summary.bytes_up;
  Alcotest.(check int) "trace bytes down = ledger" 14828
    summary.Summary.bytes_down

let dc_ss_radio () =
  let ring = Sink.ring ~capacity:8192 in
  let run =
    Sim.run ~seed:7 ~cost_model:Network.Radio_broadcast ~sink:ring
      (Query.dc ~theta:0.03 ~alpha:0.07 Dc.SS)
      (golden_stream ())
  in
  Alcotest.(check int) "bytes up" 13920 run.Sim.bytes_up;
  Alcotest.(check int) "bytes down" 1633576 run.Sim.bytes_down;
  Alcotest.(check int) "total bytes" 1647496 run.Sim.total_bytes;
  Alcotest.(check int) "sends" 434 run.Sim.sends;
  Alcotest.(check (float 1e-6)) "estimate" 3386.897246
    run.Sim.final_estimate;
  let summary = Summary.of_events (Sink.ring_contents ring) in
  check_kinds summary
    ~expected:
      [
        ("broadcast", 434);
        ("estimate_update", 434);
        ("message", 434);
        ("run_meta", 1);
        ("sketch_sent", 434);
        ("threshold_crossed", 434);
      ];
  Alcotest.(check int) "medium bytes = all broadcast traffic" 1633576
    summary.Summary.medium_bytes

let ds_gcs () =
  let ring = Sink.ring ~capacity:16384 in
  let run =
    Sim.run ~seed:7 ~sink:ring
      (Query.ds ~theta:0.25 ~threshold:256 Ds.GCS)
      (golden_stream ())
  in
  Alcotest.(check int) "bytes up" 35640 run.Sim.bytes_up;
  Alcotest.(check int) "bytes down" 106820 run.Sim.bytes_down;
  Alcotest.(check int) "total bytes" 142460 run.Sim.total_bytes;
  Alcotest.(check int) "sends" 1782 run.Sim.sends;
  let final_level, max_count_error =
    match run.Sim.aux with
    | Sim.Ds_aux { level; max_count_error; _ } -> (level, max_count_error)
    | _ -> Alcotest.fail "ds run must carry Ds_aux"
  in
  Alcotest.(check int) "final level" 4 final_level;
  Alcotest.(check (float 1e-6)) "distinct estimate" 3120.0
    run.Sim.final_estimate;
  Alcotest.(check (float 1e-6)) "max count error" 0.146341 max_count_error;
  let summary = Summary.of_events (Sink.ring_contents ring) in
  check_kinds summary
    ~expected:
      [
        ("broadcast", 1783);
        ("count_sent", 1782);
        ("level_advance", 4);
        ("message", 1782);
        ("run_meta", 1);
        ("threshold_crossed", 1782);
      ];
  Alcotest.(check int) "trace bytes up = ledger" 35640 summary.Summary.bytes_up;
  Alcotest.(check int) "trace bytes down = ledger" 106820
    summary.Summary.bytes_down

let () =
  Alcotest.run "golden_trace"
    [
      ( "golden",
        [
          Alcotest.test_case "dc ls unicast" `Quick dc_ls_unicast;
          Alcotest.test_case "dc ls fmc" `Quick dc_ls_fmc;
          Alcotest.test_case "dc ss radio" `Quick dc_ss_radio;
          Alcotest.test_case "ds gcs" `Quick ds_gcs;
        ] );
    ]
