(* Fault-injection harness tests: the Faults plan itself, ledger-charging
   semantics under drops/duplicates, trace/ledger reconciliation, and
   end-to-end convergence of the DC and DS protocols over an unreliable
   network with a mid-run site crash. *)

module Faults = Wd_net.Faults
module Network = Wd_net.Network
module Wire = Wd_net.Wire
module Sim = Whats_different.Simulation
module Query = Wd_view.Query
module Monitor = Whats_different.Monitor
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event
module Summary = Wd_obs.Summary
module Stream_gen = Wd_workload.Stream_gen

(* ------------------------------------------------------------------ *)
(* Faults plan *)

let spec_parsing () =
  (match Faults.of_spec ~seed:3 "drop=0.1,dup=0.02,crash=1:500:800" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok p ->
    Alcotest.(check bool) "enabled" true (Faults.enabled p);
    Alcotest.(check bool) "has crashes" true (Faults.has_crashes p);
    Alcotest.(check int) "crash count" 1 (List.length (Faults.crashes p));
    Alcotest.(check bool) "down inside window" true
      (Faults.is_down p ~site:1 ~time:500);
    Alcotest.(check bool) "up at window end" false
      (Faults.is_down p ~site:1 ~time:800);
    Alcotest.(check bool) "other site up" false
      (Faults.is_down p ~site:0 ~time:600));
  List.iter
    (fun bad ->
      match Faults.of_spec ~seed:3 bad with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" bad
      | Error _ -> ())
    [ "drop=1.5"; "drop=0.6,dup=0.6"; "crash=1:800:500"; "wibble=1"; "drop=x" ]

let roll_determinism () =
  let mk () =
    match Faults.of_spec ~seed:9 "drop=0.3,dup=0.2,corrupt=0.1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let trace p =
    List.init 200 (fun i ->
        match Faults.roll p ~site:(i mod 4) ~time:i with
        | Faults.Delivered n -> n
        | Faults.Lost Event.Link_drop -> -1
        | Faults.Lost Event.Corrupt_drop -> -2
        | Faults.Lost Event.Crash_drop -> -3)
  in
  Alcotest.(check (list int)) "same seed, same outcomes" (trace (mk ()))
    (trace (mk ()));
  let p = mk () in
  let outcomes = trace p in
  Alcotest.(check bool) "drops occur" true (List.mem (-1) outcomes);
  Alcotest.(check bool) "corruptions occur" true (List.mem (-2) outcomes);
  Alcotest.(check bool) "duplicates occur" true (List.mem 2 outcomes)

(* ------------------------------------------------------------------ *)
(* Ledger-charging semantics *)

let duplicates_are_charged () =
  let net = Network.create ~sites:2 () in
  Network.set_faults net (Faults.create ~duplicate:1.0 ~seed:5 ());
  (match Network.transmit_up net ~site:0 ~payload:6 with
  | Faults.Delivered 2 -> ()
  | _ -> Alcotest.fail "expected a duplicated delivery");
  let m = Wire.message ~payload:6 in
  Alcotest.(check int) "both copies charged" (2 * m) (Network.bytes_up net);
  Alcotest.(check int) "both copies are messages" 2 (Network.messages_up net);
  Alcotest.(check int) "duplicate counted" 1 (Network.duplicate_deliveries net);
  ignore (Network.transmit_down net ~site:1 ~payload:4);
  let md = Wire.message ~payload:4 in
  Alcotest.(check int) "down copies charged" (2 * md) (Network.bytes_down net);
  Alcotest.(check int) "per-site ledger sees both copies" (2 * md)
    (Network.site_bytes_down net 1);
  (* The bytes_down = medium + sum(site links) invariant is asserted
     inside Network on every send and on reset; exercise reset here. *)
  Network.reset net;
  Alcotest.(check int) "reset clears fault counters" 0
    (Network.duplicate_deliveries net)

let drops_are_charged () =
  let plan = Faults.create ~drop:1.0 ~seed:5 () in
  let net = Network.create ~sites:2 () in
  Network.set_faults net plan;
  (match Network.transmit_up net ~site:0 ~payload:8 with
  | Faults.Lost Event.Link_drop -> ()
  | _ -> Alcotest.fail "expected a link drop");
  Alcotest.(check int) "lost transmission still charged"
    (Wire.message ~payload:8) (Network.bytes_up net);
  Alcotest.(check int) "drop counted" 1 (Network.drops net);
  let d = Network.reliable_up ~max_retries:3 net ~site:0 ~payload:8 in
  Alcotest.(check bool) "never received" false d.Network.received;
  Alcotest.(check bool) "never acked" false d.Network.acked;
  Alcotest.(check int) "initial try + retries" 4 d.Network.attempts;
  Alcotest.(check int) "retries counted" 3 (Network.retries net)

let reliable_survives_ack_loss () =
  (* Under a modest drop rate every exchange must eventually land the
     payload, possibly unacked (ack losses force resends, absorbed by
     the sketches' idempotence). *)
  let plan = Faults.create ~drop:0.3 ~seed:11 () in
  let net = Network.create ~sites:1 () in
  Network.set_faults net plan;
  let acked = ref 0 and received = ref 0 in
  for _ = 1 to 100 do
    let d = Network.reliable_up ~max_retries:10 net ~site:0 ~payload:16 in
    if d.Network.received then incr received;
    if d.Network.acked then incr acked
  done;
  Alcotest.(check bool) "acked implies received" true (!acked <= !received);
  Alcotest.(check int) "all exchanges eventually received" 100 !received

(* ------------------------------------------------------------------ *)
(* End-to-end convergence + trace/ledger reconciliation *)

let stream () =
  Stream_gen.zipf ~seed:11 ~sites:4 ~events:20_000 ~universe:6_000 ()

let faulty_plan () =
  Faults.create ~drop:0.1 ~duplicate:0.02
    ~crashes:[ { Faults.site = 1; down_from = 5_000; down_until = 8_000 } ]
    ~seed:3 ()

let reconcile_with_summary ~drops ~duplicates ~retries ~bytes_up ~bytes_down
    events =
  let s = Summary.of_events events in
  Alcotest.(check int) "trace drops = ledger" drops s.Summary.drops;
  Alcotest.(check int) "trace duplicates = ledger" duplicates
    s.Summary.duplicates;
  Alcotest.(check int) "trace retries = ledger" retries s.Summary.retries;
  Alcotest.(check int) "trace bytes up = ledger" bytes_up s.Summary.bytes_up;
  Alcotest.(check int) "trace bytes down = ledger" bytes_down
    s.Summary.bytes_down;
  Alcotest.(check bool) "every crash recovered or degraded" true
    (s.Summary.crashes = s.Summary.recovers || s.Summary.degraded_sites <> []);
  s

let dc_converges_under_faults () =
  let ring = Sink.ring ~capacity:65536 in
  let theta = 0.03 and alpha = 0.07 in
  let r =
    Sim.run ~seed:7 ~sink:ring ~faults:(faulty_plan ())
      (Query.dc ~theta ~alpha Dc.LS) (stream ())
  in
  Alcotest.(check bool) "faults actually fired" true (r.Sim.drops > 0);
  Alcotest.(check bool) "retries happened" true (r.Sim.retries > 0);
  Alcotest.(check bool) "crash lost updates" true (r.Sim.lost_updates > 0);
  let rel_err =
    Float.abs (r.Sim.final_estimate -. Float.of_int r.Sim.final_truth)
    /. Float.of_int r.Sim.final_truth
  in
  Alcotest.(check bool)
    (Printf.sprintf "relative error %.4f within theta+alpha" rel_err)
    true
    (rel_err <= theta +. alpha);
  let s =
    reconcile_with_summary ~drops:r.Sim.drops
      ~duplicates:r.Sim.duplicates ~retries:r.Sim.retries
      ~bytes_up:r.Sim.bytes_up ~bytes_down:r.Sim.bytes_down
      (Sink.ring_contents ring)
  in
  Alcotest.(check int) "one crash" 1 s.Summary.crashes;
  Alcotest.(check int) "one recovery" 1 s.Summary.recovers;
  Alcotest.(check (list int)) "no site left degraded" []
    s.Summary.degraded_sites

let ds_converges_under_faults () =
  let ring = Sink.ring ~capacity:65536 in
  let theta = 0.25 in
  let r =
    Sim.run ~seed:7 ~sink:ring ~faults:(faulty_plan ())
      (Query.ds ~theta ~threshold:256 Ds.GCS) (stream ())
  in
  Alcotest.(check bool) "faults actually fired" true (r.Sim.drops > 0);
  Alcotest.(check bool) "crash lost updates" true (r.Sim.lost_updates > 0);
  let max_count_error =
    match r.Sim.aux with
    | Sim.Ds_aux { max_count_error; _ } -> max_count_error
    | _ -> Alcotest.fail "ds run must carry Ds_aux"
  in
  Alcotest.(check bool)
    (Printf.sprintf "max count error %.4f within theta" max_count_error)
    true
    (max_count_error <= theta);
  ignore
    (reconcile_with_summary ~drops:r.Sim.drops ~duplicates:r.Sim.duplicates
       ~retries:r.Sim.retries ~bytes_up:r.Sim.bytes_up
       ~bytes_down:r.Sim.bytes_down
       (Sink.ring_contents ring))

let radio_loss_reconciles () =
  (* Radio reception losses emit bytes-0 drops: the medium was charged
     once, so per-site attribution must not double count. *)
  let ring = Sink.ring ~capacity:65536 in
  let r =
    Sim.run ~seed:7 ~cost_model:Network.Radio_broadcast ~sink:ring
      ~faults:(Faults.create ~drop:0.1 ~seed:3 ())
      (Query.dc ~theta:0.03 ~alpha:0.07 Dc.SS)
      (stream ())
  in
  let s = Summary.of_events (Sink.ring_contents ring) in
  Alcotest.(check int) "trace bytes down = ledger" r.Sim.bytes_down
    s.Summary.bytes_down;
  Alcotest.(check bool) "medium carries the broadcasts" true
    (s.Summary.medium_bytes > 0);
  Alcotest.(check bool) "drops recorded" true (s.Summary.drops > 0)

let monitor_degraded_status () =
  (* A site crashed past the staleness bound surfaces as Degraded; a
     short outage does not. *)
  let cfg =
    {
      (Monitor.default_config ~sites:3) with
      Monitor.faults =
        Faults.create
          ~crashes:
            [ { Faults.site = 2; down_from = 100; down_until = 100_000 } ]
          ~seed:4 ();
      staleness_bound = 500;
    }
  in
  let m = Monitor.create cfg in
  let rng = Wd_hashing.Rng.create 8 in
  for i = 1 to 2_000 do
    Monitor.observe m ~site:(i mod 3) (Wd_hashing.Rng.int rng 1_000)
  done;
  (match Monitor.status m with
  | Monitor.Degraded [ 2 ] -> ()
  | Monitor.Degraded l ->
    Alcotest.failf "degraded sites %s, expected [2]"
      (String.concat "," (List.map string_of_int l))
  | Monitor.Healthy -> Alcotest.fail "expected Degraded");
  Alcotest.(check bool) "lost updates counted" true
    (Monitor.lost_updates m > 0);
  let healthy = Monitor.create (Monitor.default_config ~sites:3) in
  Monitor.observe healthy ~site:0 7;
  match Monitor.status healthy with
  | Monitor.Healthy -> ()
  | Monitor.Degraded _ -> Alcotest.fail "no-fault monitor must be healthy"

(* ------------------------------------------------------------------ *)
(* Clock contract: syncing the ledger clock only when a message moves
   stamps the same trace as setting it before every update. *)

module Transport = Wd_net.Transport
module Transport_sim = Wd_net.Transport_sim
module Topology = Wd_net.Topology
module Stream = Wd_workload.Stream

let clock_sites = 4

let clock_input =
  lazy
    (let s =
       Stream_gen.zipf ~seed:11 ~sites:clock_sites ~events:20_000
         ~universe:6_000 ()
     in
     ( Array.init (Stream.length s) (Stream.site s),
       Array.init (Stream.length s) (Stream.item s) ))

(* Fresh per run: plans carry generator state. *)
let clock_plans =
  [
    ("no faults", None);
    ("drop+dup", Some "drop=0.05,dup=0.05");
    ("drop+crash", Some "drop=0.05,crash=1:5000:8000");
  ]

let plan_of = function
  | None -> Faults.none
  | Some spec -> (
    match Faults.of_spec ~seed:3 spec with
    | Ok p -> p
    | Error e -> Alcotest.fail e)

let clock_topologies =
  [ ("star", None); ("depth-2 tree", Some "tree:regions=2") ]

let sim_transport ~plan ~topology () =
  let tp = Transport_sim.create ~sites:clock_sites () in
  Transport.set_faults tp (plan_of plan);
  Option.iter
    (fun spec ->
      match Topology.of_spec ~sites:clock_sites spec with
      | Ok topo -> Network.set_topology (Transport.ledger tp) topo
      | Error e -> Alcotest.fail e)
    topology;
  tp

let clock_contract make () =
  let sites, items = Lazy.force clock_input in
  List.iter
    (fun (plan_name, plan) ->
      List.iter
        (fun (topo_name, topology) ->
          let run eager =
            Clock_contract.trace ~eager make
              (sim_transport ~plan ~topology ())
              ~sites ~items
          in
          Clock_contract.check
            (plan_name ^ ", " ^ topo_name)
            ~reference:(run true) ~candidate:(run false))
        clock_topologies)
    clock_plans

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "spec parsing" `Quick spec_parsing;
          Alcotest.test_case "roll determinism" `Quick roll_determinism;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "duplicates charged" `Quick duplicates_are_charged;
          Alcotest.test_case "drops charged" `Quick drops_are_charged;
          Alcotest.test_case "reliable survives ack loss" `Quick
            reliable_survives_ack_loss;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "dc converges under faults" `Quick
            dc_converges_under_faults;
          Alcotest.test_case "ds converges under faults" `Quick
            ds_converges_under_faults;
          Alcotest.test_case "radio loss reconciles" `Quick
            radio_loss_reconciles;
          Alcotest.test_case "monitor degraded status" `Quick
            monitor_degraded_status;
        ] );
      ( "clock contract",
        List.map
          (fun (name, make) ->
            Alcotest.test_case
              (name ^ ": batch clock = eager clock")
              `Quick (clock_contract make))
          Clock_contract.trackers );
    ]
