(* Tests for the continuous-view layer: the arena allocator, the shared
   fanout plane, query specs, the registry's fan-out equivalence against
   standalone trackers, and the unified Simulation.run view reports. *)

module Arena = Wd_view.Arena
module Fanout = Wd_view.Fanout_sketch
module Query = Wd_view.Query
module Registry = Wd_view.Registry
module Tracker_intf = Wd_protocol.Tracker_intf
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module W = Wd_protocol.Window_tracker
module Network = Wd_net.Network
module Stream = Wd_workload.Stream
module Stream_gen = Wd_workload.Stream_gen
module Sim = Whats_different.Simulation
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event
module Trace = Wd_obs.Trace
module Summary = Wd_obs.Summary
module Rng = Wd_hashing.Rng

(* ------------------------------------------------------------------ *)
(* Arena *)

let test_arena_alloc_and_growth () =
  let a = Arena.create ~capacity:4 () in
  let off0 = Arena.alloc a 3 in
  let off1 = Arena.alloc a 2 in
  Alcotest.(check int) "first offset" 0 off0;
  Alcotest.(check int) "bump" 3 off1;
  Alcotest.(check int) "used" 5 (Arena.used a);
  for i = 0 to 4 do
    Alcotest.(check int) "zero-initialized" 0 (Arena.get a i)
  done;
  for i = 0 to 4 do
    Arena.set a i (100 + i)
  done;
  (* Force several doublings; earlier regions must survive the moves. *)
  let big = Arena.alloc a 4096 in
  Alcotest.(check int) "big offset" 5 big;
  for i = 0 to 4 do
    Alcotest.(check int) "survives growth" (100 + i) (Arena.get a i)
  done;
  Alcotest.(check int) "fresh region zeroed" 0 (Arena.get a (big + 4095));
  Alcotest.(check bool) "capacity covers used" true
    (Arena.capacity a >= Arena.used a)

let test_arena_blit () =
  let a = Arena.create () in
  let src = Arena.alloc a 8 in
  let dst = Arena.alloc a 8 in
  for i = 0 to 7 do
    Arena.set a (src + i) (i * i)
  done;
  Arena.blit a ~src ~dst ~len:8;
  for i = 0 to 7 do
    Alcotest.(check int) "copied" (i * i) (Arena.get a (dst + i))
  done

(* ------------------------------------------------------------------ *)
(* Fanout sketch *)

let test_fanout_standalone_accuracy () =
  let rng = Rng.create 7 in
  let fam = Fanout.family ~rng ~accuracy:0.1 ~confidence:0.9 in
  let sk = Fanout.create fam in
  let n = 20_000 in
  for v = 0 to n - 1 do
    ignore (Fanout.add sk v)
  done;
  let est = Fanout.estimate sk in
  let err = Float.abs (est -. Float.of_int n) /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within 30%% of %d" est n)
    true (err < 0.3)

let test_fanout_shared_plane () =
  let plane = Fanout.plane ~rng:(Rng.create 11) () in
  let fam_a = Fanout.family_on ~plane ~accuracy:0.1 ~confidence:0.9 in
  let fam_b = Fanout.family_on ~plane ~accuracy:0.2 ~confidence:0.9 in
  let a = Fanout.create fam_a and b = Fanout.create fam_b in
  Alcotest.(check int) "plane words cover both registers"
    (Fanout.buckets fam_a + Fanout.buckets fam_b)
    (Fanout.plane_words plane);
  (* Interleaved adds of the same item exercise the hash memo; both
     sketches must agree with privately-fed twins. *)
  let a' = Fanout.create fam_a and b' = Fanout.create fam_b in
  for v = 0 to 9_999 do
    ignore (Fanout.add a v);
    ignore (Fanout.add b v);
    ignore (Fanout.add a' v)
  done;
  for v = 0 to 9_999 do
    ignore (Fanout.add b' v)
  done;
  Alcotest.(check bool) "memoized = private twin (a)" true
    (Fanout.equal a a');
  Alcotest.(check bool) "memoized = private twin (b)" true
    (Fanout.equal b b');
  Alcotest.(check (float 0.0)) "same estimate" (Fanout.estimate a)
    (Fanout.estimate a')

(* ------------------------------------------------------------------ *)
(* Query specs *)

let sample_queries =
  [
    Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS;
    Query.dc ~name:"edge" ~sketch:Query.Fanout
      ~selector:(Query.Key_mod { modulus = 100; residue = 7 })
      ~theta:0.05 ~alpha:0.1 Dc.NS;
    Query.dc ~sketch:Query.Fmc ~estimator:Wd_sketch.Sketch_intf.Mle
      ~confidence:0.95 ~theta:0.02 ~alpha:0.08 Dc.SC;
    Query.dc ~sketch:Query.Bjkst ~seed:99
      ~selector:(Query.Sites { first = 1; count = 3 })
      ~theta:0.1 ~alpha:0.1 Dc.SS;
    Query.dc ~sketch:Query.Hll ~theta:0.1 ~alpha:0.05 Dc.EC;
    Query.ds ~theta:0.3 ~threshold:64 Ds.LCO;
    Query.ds ~name:"sample"
      ~selector:(Query.Key_mod { modulus = 2; residue = 1 })
      ~theta:0.2 ~threshold:32 Ds.GCS;
    Query.hh ~theta:0.1 Dc.LS;
    Query.hh
      ~config:{ Wd_aggregate.Fm_array.rows = 2; cols = 100; bitmaps = 8 }
      ~theta:0.2 Dc.NS;
    Query.window ~theta:0.05 ~alpha:0.1 ~window:5_000 W.LS;
  ]

let test_spec_roundtrip () =
  List.iter
    (fun q ->
      let spec = Query.to_spec q in
      match Query.of_spec spec with
      | Error e -> Alcotest.failf "of_spec %S: %s" spec e
      | Ok q' ->
        Alcotest.(check string)
          (Printf.sprintf "roundtrip %s" spec)
          spec (Query.to_spec q');
        Alcotest.(check string) "label survives" (Query.label q)
          (Query.label q');
        Alcotest.(check bool) "record equal" true (q = q'))
    sample_queries

let test_spec_errors () =
  let bad =
    [
      "bogus:xx";
      "dc:nope";
      "dc";
      "dc:ls:mystery=1";
      "dc:ls:alpha=zero";
      "hh:ec";
      "dc:ls:sketch=cuckoo";
      "dc:ls:mod=10";
      "dc:ls:sites=3";
    ]
  in
  List.iter
    (fun s ->
      match Query.of_spec s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_spec %S unexpectedly parsed" s)
    bad

let test_of_file () =
  let path = Filename.temp_file "wd_views" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# standing views\n\n\
         dc:ls:alpha=0.07,theta=0.03\n\
         ds:lco:theta=0.3,threshold=64\n";
      close_out oc;
      (match Query.of_file path with
      | Error e -> Alcotest.failf "of_file: %s" e
      | Ok qs ->
        Alcotest.(check int) "two specs" 2 (List.length qs);
        Alcotest.(check string) "labels" "dc-ls,ds-lco"
          (String.concat "," (List.map Query.label qs)));
      let oc = open_out path in
      output_string oc "dc:ls\nnot a spec\n";
      close_out oc;
      match Query.of_file path with
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the line: %s" e)
          true
          (String.length e > 0 && String.contains e '2')
      | Ok _ -> Alcotest.fail "of_file accepted a bad line")

let test_pack_pair_roundtrip =
  Prop.test_case ~name:"pack_pair roundtrip" ~count:500
    ~show:(Prop.show_pair Prop.show_int Prop.show_int)
    (Prop.pair (Prop.int_range 0 0x3FFFFFFF) (Prop.int_range 0 0x3FFFFFFF))
    (fun (v, w) ->
      let p = Query.pack_pair ~v ~w in
      Query.unpack_v p = v && Query.unpack_w p = w)

(* ------------------------------------------------------------------ *)
(* Registry: fan-out equivalence against standalone trackers *)

(* Feed every event of [stream] through the registry's packed tracker
   and return one (estimate, routed, sends, bytes) row per view. *)
let run_registry ~seed ~sites queries stream =
  let r = Registry.create ~seed ~sites ~default_window:1_000 queries in
  let packed = Registry.packed r in
  Stream.iter (fun ~site ~item -> Tracker_intf.observe packed ~site item) stream;
  let rows =
    List.init (Registry.views r) (fun i ->
        let tr = Registry.view_tracker r i in
        let net = Tracker_intf.network tr in
        ( Registry.estimate r i,
          Registry.routed r i,
          Tracker_intf.sends tr,
          Network.total_bytes net ))
  in
  Registry.close r;
  rows

(* The sub-stream a view's selector accepts, site-rebased as the
   registry rebases it. *)
let filtered_stream ~sites sel stream =
  let keep ~site ~item =
    match sel with
    | Query.All -> Some site
    | Query.Sites { first; count } ->
      if site >= first && site < first + count then Some (site - first)
      else None
    | Query.Key_mod { modulus; residue } ->
      let r = item mod modulus in
      if (if r < 0 then r + modulus else r) = residue then Some site else None
  in
  let events = ref [] in
  Stream.iter
    (fun ~site ~item ->
      match keep ~site ~item with
      | Some site -> events := (site, item) :: !events
      | None -> ())
    stream;
  let vsites =
    match sel with Query.Sites { count; _ } -> count | _ -> sites
  in
  (vsites, Stream.of_events (List.rev !events))

(* Every view of a multi-view registry must report exactly what a
   standalone single-view registry reports when fed the view's
   sub-stream with the same effective hash seed (and the same registry
   seed, which keys the shared fanout plane).  Returns the registry rows
   and a list of human-readable mismatches (empty on success). *)
let compare_registry_to_standalone ~seed ~sites queries stream =
  let rows = run_registry ~seed ~sites queries stream in
  let mismatches = ref [] in
  List.iteri
    (fun i q ->
      let est, routed, sends, bytes = List.nth rows i in
      let vseed = Option.value q.Query.seed ~default:(seed + i) in
      let vsites, sub = filtered_stream ~sites q.Query.selector stream in
      let solo_q = { q with Query.selector = Query.All; seed = Some vseed } in
      let solo =
        match run_registry ~seed ~sites:vsites [ solo_q ] sub with
        | [ row ] -> row
        | _ -> assert false
      in
      let s_est, s_routed, s_sends, s_bytes = solo in
      let bad what got want =
        mismatches :=
          Printf.sprintf "view %d (%s) %s: %s vs standalone %s" i
            (Query.to_spec q) what got want
          :: !mismatches
      in
      if routed <> s_routed then
        bad "routed" (string_of_int routed) (string_of_int s_routed);
      if est <> s_est then
        bad "estimate" (Printf.sprintf "%f" est) (Printf.sprintf "%f" s_est);
      if sends <> s_sends then
        bad "sends" (string_of_int sends) (string_of_int s_sends);
      if bytes <> s_bytes then
        bad "bytes" (string_of_int bytes) (string_of_int s_bytes))
    queries;
  (rows, List.rev !mismatches)

let check_registry_matches_standalone ~seed ~sites queries stream =
  let rows, mismatches =
    compare_registry_to_standalone ~seed ~sites queries stream
  in
  (match mismatches with
  | [] -> ()
  | ms -> Alcotest.fail (String.concat "\n" ms));
  rows

let mixed_stream = Stream_gen.zipf ~seed:3 ~sites:4 ~events:8_000 ~universe:2_000 ()

let test_registry_mixed_views_match_standalone () =
  let queries =
    [
      Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS;
      (* Three same-modulus key classes: the grouped dispatch path. *)
      Query.dc ~sketch:Query.Fanout
        ~selector:(Query.Key_mod { modulus = 3; residue = 0 })
        ~theta:0.05 ~alpha:0.1 Dc.NS;
      Query.dc ~sketch:Query.Fanout
        ~selector:(Query.Key_mod { modulus = 3; residue = 1 })
        ~theta:0.05 ~alpha:0.1 Dc.LS;
      Query.dc ~sketch:Query.Fanout
        ~selector:(Query.Key_mod { modulus = 3; residue = 2 })
        ~theta:0.05 ~alpha:0.1 Dc.LS;
      (* A lone key class stays on the scan path. *)
      Query.ds
        ~selector:(Query.Key_mod { modulus = 2; residue = 1 })
        ~theta:0.3 ~threshold:64 Ds.LCO;
      (* Site-sliced view runs a rebased 2-site tracker. *)
      Query.dc ~sketch:Query.Bjkst
        ~selector:(Query.Sites { first = 1; count = 2 })
        ~theta:0.05 ~alpha:0.1 Dc.LS;
      Query.window ~theta:0.05 ~alpha:0.1 ~window:2_000 W.LS;
    ]
  in
  let rows =
    check_registry_matches_standalone ~seed:42 ~sites:4 queries mixed_stream
  in
  (* The three mod-3 classes partition the arrivals. *)
  let routed i = match List.nth rows i with _, r, _, _ -> r in
  Alcotest.(check int) "key classes partition the stream"
    (Stream.length mixed_stream)
    (routed 1 + routed 2 + routed 3)

let test_registry_hh_view_matches_standalone () =
  (* HH views consume pair-packed keys; route a packed stream through a
     registry carrying an HH primary and a key-class HH satellite. *)
  let rng = Rng.create 5 in
  let events =
    List.init 6_000 (fun _ ->
        (Rng.int rng 4, Query.pack_pair ~v:(Rng.int rng 300) ~w:(Rng.int rng 50)))
  in
  let stream = Stream.of_events events in
  let queries =
    [
      Query.hh ~theta:0.1 Dc.LS;
      Query.hh ~theta:0.2
        ~selector:(Query.Key_mod { modulus = 7; residue = 3 })
        Dc.NS;
    ]
  in
  ignore (check_registry_matches_standalone ~seed:9 ~sites:4 queries stream)

let test_single_view_registry_is_its_tracker () =
  let r =
    Registry.create ~seed:1 ~sites:4 [ Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS ]
  in
  Alcotest.(check bool) "packed is the view tracker" true
    (Registry.packed r == Registry.view_tracker r 0);
  Registry.close r;
  (* With a satellite, the feed surface becomes the fan-out tracker. *)
  let r2 =
    Registry.create ~seed:1 ~sites:4
      [
        Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS;
        Query.dc ~theta:0.05 ~alpha:0.1 Dc.NS;
      ]
  in
  Alcotest.(check bool) "fan-out tracker wraps the views" true
    (Registry.packed r2 != Registry.view_tracker r2 0);
  Alcotest.(check string) "fan-out kind" "view"
    (match Registry.packed r2 with
    | Tracker_intf.Tracker ((module T), _) -> T.kind);
  Registry.close r2

let test_registry_validation () =
  let raises msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  let dc = Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS in
  raises "empty query list" (fun () ->
      Registry.create ~seed:1 ~sites:4 []);
  raises "sites slice out of range" (fun () ->
      Registry.create ~seed:1 ~sites:4
        [ { dc with Query.selector = Query.Sites { first = 2; count = 3 } } ]);
  raises "zero modulus" (fun () ->
      Registry.create ~seed:1 ~sites:4
        [ { dc with Query.selector = Query.Key_mod { modulus = 0; residue = 0 } } ]);
  raises "residue >= modulus" (fun () ->
      Registry.create ~seed:1 ~sites:4
        [ { dc with Query.selector = Query.Key_mod { modulus = 3; residue = 3 } } ]);
  raises "window query needs a width" (fun () ->
      Registry.create ~seed:1 ~sites:4
        [ Query.window ~theta:0.05 ~alpha:0.1 W.LS ])

(* Property: a random registry over a random stream — every view's
   final report matches its standalone twin.  Same-modulus key classes
   appear with high probability, so the grouped dispatch path is
   exercised alongside the scan path. *)
let test_registry_property =
  let gen_sat rng =
    let sel =
      match Prop.int_range 0 3 rng with
      | 0 -> Query.All
      | 1 ->
        let first = Prop.int_range 0 2 rng in
        let count = Prop.int_range 1 (3 - first) rng in
        Query.Sites { first; count }
      | _ ->
        (* Moduli drawn from {2, 3} so grouping is likely. *)
        let modulus = Prop.int_range 2 3 rng in
        Query.Key_mod { modulus; residue = Prop.int_range 0 (modulus - 1) rng }
    in
    let sketch =
      match Prop.int_range 0 4 rng with
      | 0 -> Query.Fm
      | 1 -> Query.Bjkst
      | 2 -> Query.Hll
      | 3 -> Query.Fmc
      | _ -> Query.Fanout
    in
    let algorithm = if Prop.int_range 0 1 rng = 0 then Dc.LS else Dc.NS in
    Query.dc ~sketch ~selector:sel ~theta:0.05 ~alpha:0.1 algorithm
  in
  let gen rng =
    let stream_seed = Prop.int_range 0 10_000 rng in
    let events = Prop.int_range 500 2_000 rng in
    let sats = Prop.list ~min_len:1 ~max_len:5 gen_sat rng in
    (stream_seed, events, sats)
  in
  let show (stream_seed, events, sats) =
    Printf.sprintf "seed=%d events=%d views=[%s]" stream_seed events
      (String.concat "; " (List.map Query.to_spec sats))
  in
  let shrink (stream_seed, events, sats) =
    List.map
      (fun sats -> (stream_seed, events, sats))
      (Prop.shrink_list Prop.no_shrink sats)
  in
  Prop.test_case ~name:"every view matches its standalone twin" ~count:12
    ~shrink ~show gen (fun (stream_seed, events, sats) ->
      let stream =
        Stream_gen.zipf ~seed:stream_seed ~sites:3 ~events ~universe:500 ()
      in
      let queries = Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS :: sats in
      let _, mismatches =
        compare_registry_to_standalone ~seed:17 ~sites:3 queries stream
      in
      mismatches = [])

(* ------------------------------------------------------------------ *)
(* Simulation.run with satellite views *)

let sat_views =
  [
    Query.dc ~sketch:Query.Fanout
      ~selector:(Query.Key_mod { modulus = 2; residue = 0 })
      ~theta:0.05 ~alpha:0.1 Dc.NS;
    Query.dc ~sketch:Query.Fanout
      ~selector:(Query.Key_mod { modulus = 2; residue = 1 })
      ~theta:0.05 ~alpha:0.1 Dc.NS;
  ]

let test_sim_views_leave_primary_untouched () =
  let q = Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS in
  let solo = Sim.run ~seed:7 q mixed_stream in
  let multi = Sim.run ~seed:7 ~views:sat_views q mixed_stream in
  Alcotest.(check (float 0.0)) "estimate unchanged" solo.Sim.final_estimate
    multi.Sim.final_estimate;
  Alcotest.(check int) "bytes unchanged" solo.Sim.total_bytes
    multi.Sim.total_bytes;
  Alcotest.(check int) "sends unchanged" solo.Sim.sends multi.Sim.sends;
  Alcotest.(check int) "one report per view" 3
    (Array.length multi.Sim.view_reports);
  Alcotest.(check int) "solo run reports the primary only" 1
    (Array.length solo.Sim.view_reports);
  let p = multi.Sim.view_reports.(0) in
  Alcotest.(check (float 0.0)) "primary row mirrors the run"
    multi.Sim.final_estimate p.Sim.view_estimate;
  Alcotest.(check int) "primary bytes mirror the run" multi.Sim.total_bytes
    p.Sim.view_total_bytes;
  Alcotest.(check int) "satellites partition the arrivals"
    (Stream.length mixed_stream)
    (multi.Sim.view_reports.(1).Sim.view_routed
    + multi.Sim.view_reports.(2).Sim.view_routed)

let test_sim_view_report_trace_roundtrip () =
  let q = Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS in
  let ring = Sink.ring ~capacity:65_536 in
  let r = Sim.run ~seed:7 ~sink:ring ~views:sat_views q mixed_stream in
  let events = Sink.ring_contents ring in
  let reports =
    List.filter
      (fun e ->
        match e.Event.kind with Event.View_report _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "one trace report per view" 3 (List.length reports);
  (* The JSONL codec roundtrips every report event. *)
  List.iter
    (fun e ->
      match Trace.decode_line (Trace.encode_line e) with
      | Ok e' ->
        Alcotest.(check bool) "codec roundtrip" true (e = e')
      | Error err -> Alcotest.failf "decode_line: %s" err)
    reports;
  (* Summary rows agree with the run's own view reports. *)
  let s = Summary.of_events events in
  Alcotest.(check int) "summary rows" 3 (List.length s.Summary.views);
  List.iteri
    (fun i (row : Summary.view_row) ->
      let vr = r.Sim.view_reports.(i) in
      Alcotest.(check int) "index" i row.Summary.v_index;
      Alcotest.(check string) "label" vr.Sim.view_label row.Summary.v_label;
      Alcotest.(check string) "spec" vr.Sim.view_spec row.Summary.v_spec;
      Alcotest.(check (float 0.0)) "estimate" vr.Sim.view_estimate
        row.Summary.v_estimate;
      Alcotest.(check int) "routed" vr.Sim.view_routed row.Summary.v_routed;
      Alcotest.(check int) "bytes" vr.Sim.view_total_bytes
        row.Summary.v_bytes)
    s.Summary.views;
  (* Single-view runs stay silent: legacy traces carry no view rows. *)
  let ring1 = Sink.ring ~capacity:65_536 in
  ignore (Sim.run ~seed:7 ~sink:ring1 q mixed_stream);
  Alcotest.(check int) "no reports without satellites" 0
    (List.length
       (List.filter
          (fun e ->
            match e.Event.kind with Event.View_report _ -> true | _ -> false)
          (Sink.ring_contents ring1)))

let () =
  Alcotest.run "view"
    [
      ( "arena",
        [
          Alcotest.test_case "alloc, zero-init, growth" `Quick
            test_arena_alloc_and_growth;
          Alcotest.test_case "blit" `Quick test_arena_blit;
        ] );
      ( "fanout sketch",
        [
          Alcotest.test_case "standalone accuracy" `Quick
            test_fanout_standalone_accuracy;
          Alcotest.test_case "shared plane, memoized adds" `Quick
            test_fanout_shared_plane;
        ] );
      ( "query specs",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects malformed specs" `Quick test_spec_errors;
          Alcotest.test_case "of_file" `Quick test_of_file;
          test_pack_pair_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "mixed views match standalone twins" `Quick
            test_registry_mixed_views_match_standalone;
          Alcotest.test_case "hh views on a packed pair stream" `Quick
            test_registry_hh_view_matches_standalone;
          Alcotest.test_case "one whole-stream view is its tracker" `Quick
            test_single_view_registry_is_its_tracker;
          Alcotest.test_case "rejects invalid registries" `Quick
            test_registry_validation;
          test_registry_property;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "satellites leave the primary untouched" `Quick
            test_sim_views_leave_primary_untouched;
          Alcotest.test_case "view report trace roundtrip" `Quick
            test_sim_view_report_trace_roundtrip;
        ] );
    ]
