(* The transport layer: the Wire.Frame codec, and the stream carrier
   (Transport_tcp) against the simulator under both of its addresses —
   "tcp", a loopback TCP port with two sites per relay, and "socket", a
   Unix-domain path with one relay process per site.  A fixed seed gives
   identical estimates, message counts, byte ledgers and logical traces
   on all three; the ledger-vs-wire reconciliation laws hold on both
   addresses, including across crash windows; bad handshakes are
   rejected and a missing relay times out cleanly. *)

module Wire = Wd_net.Wire
module Frame = Wd_net.Wire.Frame
module Network = Wd_net.Network
module Faults = Wd_net.Faults
module Transport = Wd_net.Transport
module Tcp = Wd_net.Transport_tcp
module Frame_io = Wd_net.Frame_io
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Simulation = Whats_different.Simulation
module Query = Wd_view.Query
module Stream_gen = Wd_workload.Stream_gen
module Http = Wd_workload.Http_trace
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event

(* --- Frame codec --- *)

let encode ~kind ~site ~length =
  let b = Bytes.create Frame.header_bytes in
  Frame.encode_header b ~pos:0 ~kind ~site ~length;
  b

let all_kinds =
  Frame.
    [ Hello; Welcome; Deliver; Request_up; Up; Finish; Stats; Reject ]

let test_header_roundtrip () =
  List.iteri
    (fun i kind ->
      let b = encode ~kind ~site:(3 * i) ~length:(17 * i) in
      match Frame.decode_header b ~pos:0 with
      | Ok h ->
        Alcotest.(check bool) "kind" true (h.Frame.kind = kind);
        Alcotest.(check int) "site" (3 * i) h.Frame.site;
        Alcotest.(check int) "length" (17 * i) h.Frame.length
      | Error e -> Alcotest.failf "decode failed: %s" (Frame.error_to_string e))
    all_kinds;
  Alcotest.(check int)
    "bytes = header + payload"
    (Frame.header_bytes + 41)
    (Frame.bytes ~payload:41)

let expect_error name b pos pred =
  match Frame.decode_header b ~pos with
  | Ok _ -> Alcotest.failf "%s: decode should fail" name
  | Error e ->
    if not (pred e) then
      Alcotest.failf "%s: wrong error %s" name (Frame.error_to_string e)

let test_header_rejects () =
  let good = encode ~kind:Frame.Deliver ~site:1 ~length:8 in
  let bad = Bytes.copy good in
  Bytes.set bad 0 'X';
  expect_error "magic" bad 0 (function Frame.Bad_magic _ -> true | _ -> false);
  let bad = Bytes.copy good in
  Bytes.set_uint8 bad 2 (Frame.version + 1);
  expect_error "version" bad 0 (function
    | Frame.Version_mismatch { expected; got } ->
      expected = Frame.version && got = Frame.version + 1
    | _ -> false);
  let bad = Bytes.copy good in
  Bytes.set_uint8 bad 3 0;
  expect_error "kind zero" bad 0 (function
    | Frame.Bad_kind 0 -> true
    | _ -> false);
  let bad = Bytes.copy good in
  Bytes.set_uint8 bad 3 200;
  expect_error "kind out of range" bad 0 (function
    | Frame.Bad_kind 200 -> true
    | _ -> false);
  let bad = Bytes.copy good in
  Bytes.set_int32_le bad 8 (-1l);
  expect_error "negative length" bad 0 (function
    | Frame.Bad_length _ -> true
    | _ -> false);
  let bad = Bytes.copy good in
  Bytes.set_int32_le bad 8 (Int32.of_int (Frame.max_payload + 1));
  expect_error "oversized length" bad 0 (function
    | Frame.Bad_length _ -> true
    | _ -> false);
  expect_error "truncated" (Bytes.sub good 0 6) 0 (function
    | Frame.Truncated { wanted; got } ->
      wanted = Frame.header_bytes && got = 6
    | _ -> false)

(* A version-1 frame (no span support) must still decode: the header
   layout is unchanged, only the span flag was added in version 2. *)
let test_legacy_v1_decodes () =
  let b = encode ~kind:Frame.Up ~site:7 ~length:32 in
  Bytes.set_uint8 b 2 Frame.legacy_version;
  (match Frame.decode_header b ~pos:0 with
  | Ok h ->
    Alcotest.(check bool) "kind" true (h.Frame.kind = Frame.Up);
    Alcotest.(check int) "site" 7 h.Frame.site;
    Alcotest.(check int) "length" 32 h.Frame.length;
    Alcotest.(check bool) "v1 never has a span" false h.Frame.has_span
  | Error e -> Alcotest.failf "v1 decode failed: %s" (Frame.error_to_string e));
  (* On a v1 frame the span flag is not a flag, just an unknown kind. *)
  let b = encode ~kind:Frame.Up ~site:7 ~length:32 in
  Bytes.set_uint8 b 2 Frame.legacy_version;
  Bytes.set_uint8 b 3 (Bytes.get_uint8 b 3 lor Frame.span_flag);
  expect_error "v1 + span flag" b 0 (function
    | Frame.Bad_kind _ -> true
    | _ -> false)

let test_spanned_roundtrip () =
  let span =
    Frame.
      {
        trace_id = 0x1122334455667788L;
        span_id = 42L;
        parent_id = 7L;
        t1_ns = 1_722_000_000_123_456_000L;
        t2_ns = 1_722_000_000_123_789_000L;
      }
  in
  let b = Bytes.create (Frame.header_bytes + Frame.span_bytes) in
  Frame.encode_header_spanned b ~pos:0 ~kind:Frame.Deliver ~site:3 ~length:64;
  Frame.encode_span b ~pos:Frame.header_bytes span;
  (match Frame.decode_header b ~pos:0 with
  | Ok h ->
    Alcotest.(check bool) "kind" true (h.Frame.kind = Frame.Deliver);
    Alcotest.(check int) "site" 3 h.Frame.site;
    Alcotest.(check int) "length excludes span block" 64 h.Frame.length;
    Alcotest.(check bool) "has_span" true h.Frame.has_span
  | Error e ->
    Alcotest.failf "spanned decode failed: %s" (Frame.error_to_string e));
  (match Frame.decode_span b ~pos:Frame.header_bytes with
  | Ok s ->
    Alcotest.(check int64) "trace_id" span.Frame.trace_id s.Frame.trace_id;
    Alcotest.(check int64) "span_id" span.Frame.span_id s.Frame.span_id;
    Alcotest.(check int64) "parent_id" span.Frame.parent_id s.Frame.parent_id;
    Alcotest.(check int64) "t1_ns" span.Frame.t1_ns s.Frame.t1_ns;
    Alcotest.(check int64) "t2_ns" span.Frame.t2_ns s.Frame.t2_ns
  | Error e ->
    Alcotest.failf "span block decode failed: %s" (Frame.error_to_string e));
  (* A truncated span block is a typed error, not an exception. *)
  match
    Frame.decode_span
      (Bytes.sub b 0 (Frame.header_bytes + Frame.span_bytes - 1))
      ~pos:Frame.header_bytes
  with
  | Ok _ -> Alcotest.fail "truncated span block decoded"
  | Error (Frame.Truncated { wanted; got }) ->
    Alcotest.(check int) "wanted" Frame.span_bytes wanted;
    Alcotest.(check int) "got" (Frame.span_bytes - 1) got
  | Error e ->
    Alcotest.failf "wrong error for truncated span: %s"
      (Frame.error_to_string e)

(* --- batch envelopes --- *)

(* Build one complete inner frame (optionally span-stamped) and append
   it to the envelope's inner region. *)
let add_inner ?span buf ~kind ~site ~length =
  (match span with
  | None ->
    let f = Bytes.make (Frame.header_bytes + length) '\042' in
    Frame.encode_header f ~pos:0 ~kind ~site ~length;
    Buffer.add_bytes buf f
  | Some span ->
    let f =
      Bytes.make (Frame.header_bytes + Frame.span_bytes + length) '\042'
    in
    Frame.encode_header_spanned f ~pos:0 ~kind ~site ~length;
    Frame.encode_span f ~pos:Frame.header_bytes span;
    Buffer.add_bytes buf f)

let some_span =
  Frame.
    {
      trace_id = 99L;
      span_id = 3L;
      parent_id = 0L;
      t1_ns = 1_722_000_000_000_000_000L;
      t2_ns = 0L;
    }

let test_batch_roundtrip () =
  let buf = Buffer.create 256 in
  add_inner buf ~kind:Frame.Deliver ~site:0 ~length:10;
  add_inner buf ~kind:Frame.Deliver ~site:3 ~length:0 ~span:some_span;
  add_inner buf ~kind:Frame.Deliver ~site:1 ~length:7;
  let inner = Buffer.to_bytes buf in
  (* The envelope header itself: site field carries the inner count. *)
  let env = Bytes.create Frame.header_bytes in
  Frame.encode_batch_header env ~pos:0 ~count:3 ~length:(Bytes.length inner);
  (match Frame.decode_header env ~pos:0 with
  | Ok h ->
    Alcotest.(check bool) "kind is batch" true (h.Frame.kind = Frame.Batch);
    Alcotest.(check int) "count in site field" 3 h.Frame.site;
    Alcotest.(check int) "length is inner region" (Bytes.length inner)
      h.Frame.length
  | Error e ->
    Alcotest.failf "envelope header: %s" (Frame.error_to_string e));
  match Frame.decode_batch inner ~count:3 with
  | Error e -> Alcotest.failf "decode_batch: %s" (Frame.error_to_string e)
  | Ok frames ->
    Alcotest.(check int) "three inner frames" 3 (List.length frames);
    let sites = List.map (fun (h, _, _) -> h.Frame.site) frames in
    Alcotest.(check (list int)) "sites in order" [ 0; 3; 1 ] sites;
    List.iteri
      (fun i (h, span, payload_off) ->
        Alcotest.(check bool)
          (Printf.sprintf "inner %d is deliver" i)
          true
          (h.Frame.kind = Frame.Deliver);
        (match (i, span) with
        | 1, Some s ->
          Alcotest.(check int64) "span carried" 99L s.Frame.trace_id
        | 1, None -> Alcotest.fail "span block lost in batch"
        | _, None -> ()
        | _, Some _ -> Alcotest.failf "inner %d grew a span" i);
        if h.Frame.length > 0 then
          Alcotest.(check char)
            (Printf.sprintf "inner %d payload offset" i)
            '\042'
            (Bytes.get inner payload_off))
      frames

let expect_batch_error name inner ~count pred =
  match Frame.decode_batch inner ~count with
  | Ok _ -> Alcotest.failf "%s: decode_batch should fail" name
  | Error e ->
    if not (pred e) then
      Alcotest.failf "%s: wrong error %s" name (Frame.error_to_string e)

let test_batch_rejects () =
  let buf = Buffer.create 64 in
  add_inner buf ~kind:Frame.Deliver ~site:0 ~length:10;
  add_inner buf ~kind:Frame.Deliver ~site:1 ~length:4;
  let inner = Buffer.to_bytes buf in
  (* Announced count disagrees with the walked region, both ways. *)
  expect_batch_error "count too low" inner ~count:1 (function
    | Frame.Bad_count { expected = 1; got = 2 } -> true
    | _ -> false);
  expect_batch_error "count too high" inner ~count:3 (function
    | Frame.Bad_count { expected = 3; got = 2 } -> true
    | _ -> false);
  (* A cut anywhere in the region is a typed Truncated, not a crash. *)
  for cut = 1 to Bytes.length inner - 1 do
    expect_batch_error
      (Printf.sprintf "cut at %d" cut)
      (Bytes.sub inner 0 cut)
      ~count:2
      (function
        | Frame.Truncated _ -> true
        | Frame.Bad_count _ -> true (* cut exactly on a frame boundary *)
        | _ -> false)
  done;
  (* Nested envelopes are forbidden. *)
  let nested = Buffer.create 32 in
  let env = Bytes.create Frame.header_bytes in
  Frame.encode_batch_header env ~pos:0 ~count:0 ~length:0;
  Buffer.add_bytes nested env;
  expect_batch_error "nested batch" (Buffer.to_bytes nested) ~count:1
    (function
      | Frame.Bad_kind 9 -> true
      | _ -> false);
  (* A stomped inner length field overruns the region: typed error. *)
  let stomped = Bytes.copy inner in
  Bytes.set_int32_le stomped 8 1_000_000l;
  expect_batch_error "stomped inner length" stomped ~count:2 (function
    | Frame.Truncated _ -> true
    | _ -> false)

(* --- equivalence harness --- *)

let sites = 4

let stream =
  lazy (Stream_gen.zipf ~seed:11 ~sites ~events:20_000 ~universe:6_000 ())

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "/tmp/wdt-%d-%d.sock" (Unix.getpid ()) !counter

(* The carrier's two addresses. *)
type address = Tcp_port | Unix_path

let addresses = [ Tcp_port; Unix_path ]
let address_name = function Tcp_port -> "tcp" | Unix_path -> "socket"

(* Two sites per relay over TCP exercises the multiplexed connection;
   one per relay over the path keeps a process per site. *)
let relay_ranges address ~sites =
  let per_relay = match address with Tcp_port -> 2 | Unix_path -> 1 in
  let rec go first acc =
    if first >= sites then List.rev acc
    else
      let count = min per_relay (sites - first) in
      go (first + count) ((first, count) :: acc)
  in
  go 0 []

(* Fork one relay process per range; children never return. *)
let spawn_relays ?connect_timeout ?port ?path ranges =
  List.map
    (fun (first_site, count) ->
      match Unix.fork () with
      | 0 ->
        (try
           ignore
             (Tcp.Relay.run ?connect_timeout ?port ?path ~first_site ~count ()
               : Frame_io.site_report);
           Unix._exit 0
         with _ -> Unix._exit 1)
      | pid -> pid)
    ranges

let reap pids =
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "relay exited abnormally")
    pids

(* Listen on [address] (a fresh path unless [path] names one) and call
   [on_bound ?port ?path] with the address relays must connect to once it
   is bound. *)
let listen ?timeout ?path address ~sites
    (on_bound : ?port:int -> ?path:string -> unit -> unit) =
  let port, path =
    match (address, path) with
    | Tcp_port, _ -> (Some 0, None)
    | Unix_path, Some path -> (None, Some path)
    | Unix_path, None -> (None, Some (sock_path ()))
  in
  Tcp.Coordinator.connect ?timeout ?port ?path ~sites
    ~on_listening:(fun bound ->
      on_bound ?port:(Option.map (fun _ -> bound) port) ?path ())
    ()

let run_dc ?(algorithm = Dc.LS) ?transport ?topology ?(faults = Faults.none)
    ?sink () =
  Simulation.run ~seed:7 ?transport ?topology ~faults ?sink
    (Query.dc ~theta:0.015 ~alpha:0.085 algorithm)
    (Lazy.force stream)

(* The documented ledger-vs-wire laws, checked against the relays' own
   counters: the down direction includes the batch-envelope headers. *)
let reconcile coord ws net =
  let extra = Frame.header_bytes - Wire.header_bytes in
  Alcotest.(check int)
    "wire bytes up reconcile"
    (Network.bytes_up net - ws.Transport.skipped_up
    + (ws.Transport.frames_up * extra))
    ws.Transport.wire_bytes_up;
  Alcotest.(check int)
    "wire bytes down reconcile"
    (Network.bytes_down net - ws.Transport.skipped_down
    + (ws.Transport.frames_down * extra))
    ws.Transport.wire_bytes_down;
  let reports = Tcp.Coordinator.reports coord in
  List.iter
    (fun (first, count, r) ->
      if r = None then
        Alcotest.failf "relay %d+%d never reported stats" first count)
    reports;
  let sum f =
    List.fold_left
      (fun acc (_, _, r) -> acc + Option.fold ~none:0 ~some:f r)
      0 reports
  in
  Alcotest.(check int)
    "relay bytes received (incl. batch envelopes)"
    (ws.Transport.wire_bytes_down + ws.Transport.radio_copy_bytes
   + ws.Transport.control_bytes
    + (ws.Transport.span_frames_down * Frame.span_bytes)
    + (ws.Transport.batch_envelopes * Frame.header_bytes))
    (sum (fun r -> r.Frame_io.bytes_received));
  Alcotest.(check int)
    "relay bytes sent"
    (ws.Transport.wire_bytes_up
    + (ws.Transport.span_frames_up * Frame.span_bytes))
    (sum (fun r -> r.Frame_io.bytes_sent));
  Alcotest.(check int)
    "relay frames received = batch inner + control"
    (ws.Transport.batch_inner_frames + ws.Transport.control_frames)
    (sum (fun r -> r.Frame_io.frames_received));
  Alcotest.(check bool) "deliveries actually batched" true
    (ws.Transport.batch_envelopes > 0
    && ws.Transport.batch_inner_frames >= ws.Transport.batch_envelopes)

(* Run [f transport] over the carrier at [address] with its relays, then
   check the reconciliation laws; returns [f]'s result and the wire
   stats. *)
let with_carrier ?path address ~sites f =
  let pids = ref [] in
  let coord =
    listen ?path address ~sites (fun ?port ?path () ->
        pids := spawn_relays ?port ?path (relay_ranges address ~sites))
  in
  let transport = Tcp.Coordinator.pack coord in
  let r = f transport in
  reap !pids;
  let ws = Option.get (Transport.wire_stats transport) in
  reconcile coord ws (Transport.ledger transport);
  (r, ws)

(* --- logical traces --- *)

(* The strongest equivalence check: the full protocol-decision and
   ledger event trace, event for event.  Span events are off (they
   carry wall clocks) and everything else — including Run_meta, whose
   run id is seed-derived — must be bit-identical across backends. *)
let trace_capacity = 300_000

let check_traces_equal label (a : Event.t list) (b : Event.t list) =
  Alcotest.(check int)
    (label ^ ": trace length")
    (List.length a) (List.length b);
  List.iteri
    (fun i (ea, eb) ->
      if ea <> eb then
        Alcotest.failf "%s: traces diverge at event %d (%s vs %s, time %d/%d)"
          label i
          (Event.kind_name ea.Event.kind)
          (Event.kind_name eb.Event.kind)
          ea.Event.time eb.Event.time)
    (List.combine a b)

let check_runs_equal label (a : Simulation.run) (b : Simulation.run) =
  let check_int name x y = Alcotest.(check int) (label ^ ": " ^ name) x y in
  Alcotest.(check (float 0.0))
    (label ^ ": estimate") a.Simulation.final_estimate
    b.Simulation.final_estimate;
  check_int "truth" a.Simulation.final_truth b.Simulation.final_truth;
  check_int "sends" a.Simulation.sends b.Simulation.sends;
  check_int "bytes up" a.Simulation.bytes_up b.Simulation.bytes_up;
  check_int "bytes down" a.Simulation.bytes_down b.Simulation.bytes_down;
  check_int "total bytes" a.Simulation.total_bytes b.Simulation.total_bytes;
  check_int "backbone bytes" a.Simulation.backbone_bytes
    b.Simulation.backbone_bytes;
  check_int "drops" a.Simulation.drops b.Simulation.drops;
  check_int "retries" a.Simulation.retries b.Simulation.retries;
  check_int "lost updates" a.Simulation.lost_updates
    b.Simulation.lost_updates

(* The fixed-seed DC run on the simulator, with its logical trace. *)
let sim_dc_traced () =
  let ring = Sink.ring ~capacity:trace_capacity in
  let r_sim = run_dc ~sink:ring () in
  let t_sim = Sink.ring_contents ring in
  Alcotest.(check bool) "trace non-trivial" true (List.length t_sim > 100);
  (r_sim, t_sim)

(* One address's leg of the DC cell: the carrier's run record AND
   logical event trace equal the simulator's, and a clean run detaches
   nobody, skips nothing and puts frames on the wire. *)
let check_dc_leg ?path address (r_sim, t_sim) =
  let label = "sim=" ^ address_name address in
  let ring = Sink.ring ~capacity:trace_capacity in
  let r, ws =
    with_carrier ?path address ~sites (fun transport ->
        run_dc ~transport ~sink:ring ())
  in
  check_runs_equal label r_sim r;
  check_traces_equal label t_sim (Sink.ring_contents ring);
  Alcotest.(check int) (label ^ ": no reconnects") 0 ws.Transport.reconnects;
  Alcotest.(check int)
    (label ^ ": nothing skipped")
    0
    (ws.Transport.skipped_up + ws.Transport.skipped_down);
  Alcotest.(check bool)
    (label ^ ": frames actually crossed the wire")
    true
    (ws.Transport.frames_up > 0 && ws.Transport.frames_down > 0)

(* The Unix-path address on its own, one relay process per site: a
   socket file left behind by a coordinator that died does not stop the
   bind, and the carrier removes its own path at close. *)
let test_sim_socket_equivalence () =
  let path = sock_path () in
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  Alcotest.(check bool) "stale socket file in place" true
    (Sys.file_exists path);
  check_dc_leg ~path Unix_path (sim_dc_traced ());
  Alcotest.(check bool) "socket path removed at close" false
    (Sys.file_exists path)

(* The three-way battery, DC cell: the same fixed-seed run through the
   simulator and the carrier at both addresses. *)
let test_three_way_dc_equivalence () =
  let sim = sim_dc_traced () in
  List.iter (fun address -> check_dc_leg address sim) addresses

let crash_faults () =
  (* A fresh plan per run: plans carry generator state, so sharing one
     across two runs would break the fixed-seed equivalence. *)
  match Faults.of_spec ~seed:3 "drop=0.05,crash=1:5000:8000" with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* Crash windows are logical detaches on a connection that stays open.
   LS sends the crashed site nothing inside its window; SS's deliveries
   to it are skipped, which is what exercises the skipped-bytes term of
   the reconciliation laws.  Each case: the algorithm and whether its
   run skips down bytes. *)
let crash_cases = [ (Dc.LS, false); (Dc.SS, true) ]

let sim_crash_run algorithm =
  let r_sim = run_dc ~algorithm ~faults:(crash_faults ()) () in
  Alcotest.(check bool)
    (Dc.algorithm_to_string algorithm ^ ": run actually lost updates")
    true
    (r_sim.Simulation.lost_updates > 0);
  r_sim

(* One address's crash-window run: equal to the simulator's, the crashed
   site detached and reattached, and down charges skipped as the case
   says.  Returns the reconnect and skipped counts. *)
let check_crash_leg r_sim (algorithm, skips_down) address =
  let label =
    Dc.algorithm_to_string algorithm ^ " sim=" ^ address_name address
  in
  let r, ws =
    with_carrier address ~sites (fun transport ->
        run_dc ~algorithm ~transport ~faults:(crash_faults ()) ())
  in
  check_runs_equal label r_sim r;
  Alcotest.(check bool)
    (label ^ ": crashed site detached and reattached")
    true
    (ws.Transport.reconnects >= 1);
  Alcotest.(check bool)
    (label ^ ": down charges skipped")
    skips_down
    (ws.Transport.skipped_down > 0);
  (ws.Transport.reconnects, ws.Transport.skipped_up, ws.Transport.skipped_down)

(* The Unix-path address on its own, one relay process per site. *)
let test_socket_crash_windows () =
  List.iter
    (fun ((algorithm, _) as case) ->
      ignore (check_crash_leg (sim_crash_run algorithm) case Unix_path))
    crash_cases

(* Both addresses, whose reconnect and skipped accounting must agree. *)
let test_crash_windows () =
  List.iter
    (fun ((algorithm, _) as case) ->
      let r_sim = sim_crash_run algorithm in
      let stats = List.map (check_crash_leg r_sim case) addresses in
      List.iter
        (Alcotest.(check (triple int int int))
           (Dc.algorithm_to_string algorithm
           ^ ": reconnects and skipped bytes agree across addresses")
           (List.hd stats))
        (List.tl stats))
    crash_cases

(* --- three-way battery: DS and HH cells --- *)

let run_ds ?transport ?topology () =
  Simulation.run ~seed:7 ?transport ?topology
    (Query.ds ~theta:0.25 ~threshold:256 Ds.GCS)
    (Lazy.force stream)

(* The full run record of [run] on the simulator equals the one over
   the carrier at each address. *)
let check_full_records ~what ~sites run =
  let r_sim = run None in
  Alcotest.(check bool) (what ^ " paid communication") true
    (r_sim.Simulation.total_bytes > 0);
  List.iter
    (fun address ->
      let r, _ = with_carrier address ~sites (fun t -> run (Some t)) in
      Alcotest.(check bool)
        (Printf.sprintf "sim = %s (full %s record)" (address_name address) what)
        true (r_sim = r))
    addresses

let test_three_way_ds_equivalence () =
  check_full_records ~what:"ds" ~sites (fun transport -> run_ds ?transport ())

let hh_inputs =
  lazy
    (let cfg = { Http.default with Http.requests = 5_000 } in
     let p = Simulation.pair_stream_of_requests cfg Http.Per_region (Http.generate cfg) in
     (p, Simulation.pair_stream_sites p))

let run_hh ?transport ?topology () =
  let p, _ = Lazy.force hh_inputs in
  Simulation.run ~seed:7 ?transport ?topology
    (Query.hh ~theta:0.2
       ~config:{ Wd_aggregate.Fm_array.rows = 3; cols = 128; bitmaps = 10 }
       Dc.LS)
    (Simulation.stream_of_pairs p)

let test_three_way_hh_equivalence () =
  let _, hh_sites = Lazy.force hh_inputs in
  check_full_records ~what:"hh" ~sites:hh_sites (fun transport ->
      run_hh ?transport ())

(* --- depth-2 tree battery --- *)

(* The hierarchical extension of the three-way battery: the same tree
   topology installed on every backend's ledger must leave the full run
   record — including the new backbone counters — bit-identical, because
   backbone hops are pure ledger arithmetic shared by construction. *)
let tree_topo () =
  match Wd_net.Topology.of_spec ~sites "tree:regions=2" with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_three_way_tree_dc_equivalence () =
  let topology = tree_topo () in
  Alcotest.(check int) "depth 2" 2 (Wd_net.Topology.depth topology);
  check_full_records ~what:"dc tree" ~sites (fun transport ->
      run_dc ?transport ~topology ());
  let r_tree = run_dc ~topology () in
  Alcotest.(check bool) "backbone paid" true
    (r_tree.Simulation.backbone_bytes > 0);
  (* The tree only adds backbone charges on top of the flat run. *)
  let r_flat = run_dc () in
  Alcotest.(check int) "site-link bytes unchanged by the tree"
    r_flat.Simulation.total_bytes r_tree.Simulation.total_bytes;
  Alcotest.(check (float 0.0))
    "estimate unchanged by the tree" r_flat.Simulation.final_estimate
    r_tree.Simulation.final_estimate

(* An aggregator crash mid-run over the real TCP backend: the crash
   window swallows forwarded frames (charged but lost), and the sim and
   tcp ledgers must agree on every counter anyway. *)
let agg_crash_faults topology =
  let node = Wd_net.Topology.node_of_agg topology 0 in
  match
    Faults.of_spec ~seed:3 (Printf.sprintf "crash=%d:5000:8000" node)
  with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_tcp_tree_aggregator_crash () =
  let topology = tree_topo () in
  let r_sim = run_dc ~topology ~faults:(agg_crash_faults topology) () in
  let r_tcp, _ =
    with_carrier Tcp_port ~sites (fun transport ->
        run_dc ~transport ~topology ~faults:(agg_crash_faults topology) ())
  in
  check_runs_equal "sim=tcp" r_sim r_tcp;
  Alcotest.(check bool) "backbone paid" true
    (r_tcp.Simulation.backbone_bytes > 0);
  (* The crash must actually have been exercised: frames charged into
     the dead aggregator were lost, so the answer still lands but the
     run is not byte-identical to the fault-free tree run. *)
  let r_clean = run_dc ~topology () in
  Alcotest.(check bool) "aggregator crash changed the run" true
    (r_sim.Simulation.backbone_bytes <> r_clean.Simulation.backbone_bytes
    || r_sim.Simulation.total_bytes <> r_clean.Simulation.total_bytes)

(* --- clock contract over the stream carrier --- *)

(* The trackers sync the ledger clock lazily (see Clock_contract), and
   the carrier's crash hook runs on that clock.  Under a crash window the
   batched run must detach and reattach the site on the same update as
   the eager one, and stamp the same trace. *)
let clock_faults () =
  match Faults.of_spec ~seed:3 "drop=0.05,crash=1:5000:8000" with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_tcp_clock_contract () =
  let s = Lazy.force stream in
  let n = Wd_workload.Stream.length s in
  let site_arr = Array.init n (Wd_workload.Stream.site s)
  and items = Array.init n (Wd_workload.Stream.item s) in
  List.iter
    (fun (name, make) ->
      let run eager =
        let events, ws =
          with_carrier Tcp_port ~sites (fun transport ->
              Transport.set_faults transport (clock_faults ());
              let events =
                Clock_contract.trace ~eager make transport ~sites:site_arr
                  ~items
              in
              Transport.close transport;
              events)
        in
        ( events,
          (ws.Transport.reconnects, ws.Transport.skipped_up,
           ws.Transport.skipped_down) )
      in
      let reference, ref_stats = run true in
      let candidate, stats = run false in
      Clock_contract.check (name ^ " over tcp") ~reference ~candidate;
      Alcotest.(check (triple int int int))
        (name ^ ": reconnects and skipped bytes") ref_stats stats;
      let reconnects, _, _ = stats in
      Alcotest.(check bool) (name ^ ": crashed site reattached") true
        (reconnects >= 1))
    [ ("LS", Clock_contract.dc Dc.LS); ("LCS", Clock_contract.ds Ds.LCS) ]

(* --- handshake robustness, per address --- *)

let read_exact fd buf =
  let wanted = Bytes.length buf in
  let rec go pos =
    if pos < wanted then begin
      let r = Unix.read fd buf pos (wanted - pos) in
      if r = 0 then failwith "eof";
      go (pos + r)
    end
  in
  go 0

(* Speak a ranged Hello with the wrong version byte; the coordinator
   must answer Reject.  Connects are retried until a wall-clock
   deadline, not a sleep count: under load the coordinator may take
   arbitrarily long to bind. *)
let bad_version_client ?port ?path () =
  let domain, addr =
    match (port, path) with
    | Some port, _ ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    | None, Some path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | None, None -> invalid_arg "bad_version_client"
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec connect () =
    try Unix.connect fd addr
    with
    | Unix.Unix_error
        ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline
      ->
      Unix.sleepf 0.02;
      connect ()
  in
  connect ();
  let hello = Bytes.create (Frame.header_bytes + 4) in
  Frame.encode_header hello ~pos:0 ~kind:Frame.Hello ~site:0 ~length:4;
  Bytes.set_int32_le hello Frame.header_bytes 1l;
  Bytes.set_uint8 hello 2 (Frame.version + 1);
  ignore (Unix.write fd hello 0 (Bytes.length hello));
  let resp = Bytes.create Frame.header_bytes in
  read_exact fd resp;
  let ok =
    match Frame.decode_header resp ~pos:0 with
    | Ok { Frame.kind = Frame.Reject; _ } -> true
    | _ -> false
  in
  Unix.close fd;
  ok

(* A wrong version byte in the Hello draws a typed Reject and does not
   count toward the quorum: a good relay started after the rejection
   still claims the single site, and it is the only connection the
   coordinator keeps.  One child plays both peers in turn, so the bad
   Hello always arrives first. *)
let check_version_mismatch_rejected address =
  let pid = ref None in
  let coord =
    listen address ~sites:1 (fun ?port ?path () ->
        pid :=
          match Unix.fork () with
          | 0 -> (
            try
              let rejected = bad_version_client ?port ?path () in
              ignore
                (Tcp.Relay.run ?port ?path ~first_site:0 ~count:1 ()
                  : Frame_io.site_report);
              Unix._exit (if rejected then 0 else 2)
            with _ -> Unix._exit 1)
          | pid -> Some pid)
  in
  Transport.close (Tcp.Coordinator.pack coord);
  (match Unix.waitpid [] (Option.get !pid) with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED 2 -> Alcotest.fail "bad-version client was not rejected"
  | _, _ -> Alcotest.fail "relay exited abnormally");
  match Tcp.Coordinator.reports coord with
  | [ (0, 1, Some _) ] -> ()
  | _ -> Alcotest.fail "the rejected peer counted toward the quorum"

(* A coordinator waiting on a site that never connects must fail with
   the documented [Failure] naming the timeout, promptly — never a raw
   [Unix_error] or a hang — and leave no socket path behind. *)
let check_coordinator_times_out address =
  let pids = ref [] in
  let bound_path = ref None in
  let started = Unix.gettimeofday () in
  (* Only 3 of the 4 expected relays, with a short connect budget. *)
  (match
     listen ~timeout:0.4 address ~sites:4 (fun ?port ?path () ->
         bound_path := path;
         pids :=
           spawn_relays ~connect_timeout:2. ?port ?path
             [ (0, 1); (1, 1); (2, 1) ])
   with
  | (_ : Tcp.Coordinator.t) ->
    Alcotest.fail "coordinator connected without its fourth site"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "failure names the timeout: %S" msg)
      true
      (let re = "timed out" in
       let len = String.length re in
       let rec find i =
         i + len <= String.length msg
         && (String.sub msg i len = re || find (i + 1))
       in
       find 0)
  | exception Unix.Unix_error (e, fn, _) ->
    Alcotest.failf "raw Unix_error leaked: %s in %s" (Unix.error_message e) fn);
  let waited = Unix.gettimeofday () -. started in
  if waited > 5.0 then
    Alcotest.failf "coordinator hung %.1fs against a 0.4s timeout" waited;
  Option.iter
    (fun path ->
      Alcotest.(check bool) "socket path removed" false (Sys.file_exists path))
    !bound_path;
  List.iter
    (fun pid ->
      ignore (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    !pids

let () =
  Alcotest.run "transport"
    [
      ( "frame",
        [
          Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "header rejects" `Quick test_header_rejects;
          Alcotest.test_case "legacy v1 decodes" `Quick test_legacy_v1_decodes;
          Alcotest.test_case "spanned roundtrip" `Quick test_spanned_roundtrip;
          Alcotest.test_case "batch roundtrip" `Quick test_batch_roundtrip;
          Alcotest.test_case "batch rejects" `Quick test_batch_rejects;
        ] );
      ( "socket",
        [
          Alcotest.test_case "sim = socket (fixed seed)" `Quick
            test_sim_socket_equivalence;
          Alcotest.test_case "crash window reconnects" `Quick
            test_socket_crash_windows;
          Alcotest.test_case "version mismatch rejected" `Quick (fun () ->
              check_version_mismatch_rejected Unix_path);
          Alcotest.test_case "coordinator times out cleanly" `Quick (fun () ->
              check_coordinator_times_out Unix_path);
        ] );
      ( "three-way",
        [
          Alcotest.test_case "dc: sim = socket = tcp (traces)" `Quick
            test_three_way_dc_equivalence;
          Alcotest.test_case "ds: sim = socket = tcp" `Quick
            test_three_way_ds_equivalence;
          Alcotest.test_case "hh: sim = socket = tcp" `Quick
            test_three_way_hh_equivalence;
          Alcotest.test_case "tcp crash windows detach and reattach" `Quick
            test_crash_windows;
          Alcotest.test_case "dc depth-2 tree: sim = socket = tcp" `Quick
            test_three_way_tree_dc_equivalence;
          Alcotest.test_case "tcp aggregator crash mid-run" `Quick
            test_tcp_tree_aggregator_crash;
          Alcotest.test_case "tcp version mismatch rejected" `Quick (fun () ->
              check_version_mismatch_rejected Tcp_port);
          Alcotest.test_case "tcp coordinator times out cleanly" `Quick
            (fun () -> check_coordinator_times_out Tcp_port);
        ] );
      ( "clock",
        [
          Alcotest.test_case "tcp crash windows: batch clock = eager clock"
            `Quick test_tcp_clock_contract;
        ] );
    ]
