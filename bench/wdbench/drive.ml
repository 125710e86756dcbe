(* One repetition of a workload through the coordinator's public ingest
   path: [Registry.create] (after [Transport_tcp.Coordinator.connect] on
   TCP), chunked [observe_batch] + [estimate] calls, [Registry.close].

   The loop is closed: the next chunk is handed over only once the
   estimate after the previous one has been read, so the chunk time is
   how long the coordinator takes to reflect a chunk in its answer.
   Relays only answer the coordinator's frames, so there is no
   independent arrival process that an open loop could model. *)

module Tracker_intf = Wd_protocol.Tracker_intf
module Ds = Wd_protocol.Ds_tracker
module Registry = Wd_view.Registry
module Network = Wd_net.Network
module Transport = Wd_net.Transport
module Tcp = Wd_net.Transport_tcp
module Frame = Wd_net.Wire.Frame
module Frame_io = Wd_net.Frame_io
module Span = Wd_obs.Span
module Event = Wd_obs.Event

let now = Unix.gettimeofday
let ns_of t = Int64.of_float (t *. 1e9)

(* ------------------------------------------------------------------ *)
(* Spans, recorded from the benchmark's side of each layer boundary and
   kept in memory until the run ends. *)

type tracer = { rec_ : Span.t; events : Event.t list ref }

let tracer ~seed =
  let events = ref [] in
  let rec_ =
    Span.create ~trace_id:(Int64.of_int (seed + 1)) ~clock:Wd_net.Clock.ns
      ~emit:(fun ev -> events := ev :: !events)
      ()
  in
  { rec_; events }

let events tr = List.rev !(tr.events)

(* Record a finished span under [parent]; a no-op without a tracer. *)
let span tracer ?parent ?span_id ~name ~time t0 t1 =
  match tracer with
  | None -> ()
  | Some tr ->
    ignore
      (Span.finish tr.rec_ ~name ?parent ?span_id ~time ~start_ns:(ns_of t0)
         ~end_ns:(ns_of t1) ()
        : Span.ctx)

let fresh_id tracer =
  match tracer with None -> Span.root_parent | Some tr -> Span.fresh_id tr.rec_

(* ------------------------------------------------------------------ *)
(* Relays: at most two connections (this benchmark's load comes from one
   coordinator process), each a separate process serving a contiguous
   site range.  A relay is this executable started afresh ([relay]
   mode) rather than a fork: a forked child would share the
   coordinator's heap pages copy-on-write, and every page the
   coordinator then wrote would be copied inside the timed feed. *)

let max_relays = 2
let relay_timeout = 60.

let ranges sites =
  let r = min max_relays sites in
  List.init r (fun i ->
      let first = i * sites / r in
      (first, ((i + 1) * sites / r) - first))

let relay_main ~port ~first_site ~count =
  ignore
    (Tcp.Relay.run ~timeout:relay_timeout ~port ~first_site ~count ()
      : Frame_io.site_report)

let spawn_relays ~port ranges =
  List.map
    (fun (first_site, count) ->
      Unix.create_process Sys.executable_name
        (Array.map string_of_int [| port; first_site; count |]
        |> Array.append [| Sys.executable_name; "relay" |])
        Unix.stdin Unix.stdout Unix.stderr)
    ranges

(* Wait for every relay; with [kill], stop them first.  Returns whether
   all of them exited cleanly. *)
let reap ?(kill = false) pids =
  List.fold_left
    (fun ok pid ->
      if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ok
      | _ -> false
      | exception Unix.Unix_error _ -> false)
    true pids

(* ------------------------------------------------------------------ *)
(* One repetition *)

type counters = {
  updates : int;
  sends : int;
  bytes_up : int;
  bytes_down : int;
  total_bytes : int;  (** ledger [total_bytes + backbone_bytes] *)
  messages_up : int;
  messages_down : int;
}

type wire = {
  stats : Transport.wire_stats;
  relay_sent : int;
  relay_received : int;
  relay_frames : int;
}

type rep = {
  connect_s : float;  (** TCP listener + relay handshakes; 0 on sim *)
  create_s : float;  (** [Registry.create] *)
  feed_s : float;
  close_s : float;
  chunk_us : float array;
  msgs : int array;  (** ledger messages each chunk charged *)
  estimates : float array;  (** the estimate read after each chunk *)
  minor_words : float;  (** allocated over the feed *)
  state_words : int;
      (** live heap words the registry holds after the feed; 0 unless
          the repetition was asked to measure it *)
  counters : counters;
  wire : wire option;
  max_count_error : float option;
      (** DS: max relative count error over the final sample *)
}

let setup_s r = r.connect_s +. r.create_s
let ingest_s r = r.feed_s +. r.close_s

let counters_of tr net =
  {
    updates = Tracker_intf.updates tr;
    sends = Tracker_intf.sends tr;
    bytes_up = Network.bytes_up net;
    bytes_down = Network.bytes_down net;
    total_bytes = Network.total_bytes net + Network.backbone_bytes net;
    messages_up = Network.messages_up net;
    messages_down = Network.messages_down net;
  }

exception Rep_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Rep_failed s)) fmt

let wire_of coord =
  match Tcp.Coordinator.wire_stats coord with
  | None -> fail "the TCP carrier kept no wire counters"
  | Some stats ->
    let sum f =
      List.fold_left
        (fun acc (_, _, r) -> acc + Option.fold ~none:0 ~some:f r)
        0
        (Tcp.Coordinator.reports coord)
    in
    {
      stats;
      relay_sent = sum (fun r -> r.Frame_io.bytes_sent);
      relay_received = sum (fun r -> r.Frame_io.bytes_received);
      relay_frames = sum (fun r -> r.Frame_io.frames_received);
    }

(* The TCP reconciliation laws (the ones [test_transport.ml] checks):
   ledger bytes against the coordinator's frame counters, and those
   against what the relays report having received and sent. *)
let wire_law_error coord (w : wire) net =
  let ws = w.stats in
  let extra = Frame.header_bytes - Wd_net.Wire.header_bytes in
  let laws =
    [
      ( "wire bytes up",
        Network.bytes_up net - ws.skipped_up + (ws.frames_up * extra),
        ws.wire_bytes_up );
      ( "wire bytes down",
        Network.bytes_down net - ws.skipped_down + (ws.frames_down * extra),
        ws.wire_bytes_down );
      ( "relay bytes received",
        ws.wire_bytes_down + ws.radio_copy_bytes + ws.control_bytes
        + (ws.span_frames_down * Frame.span_bytes)
        + (ws.batch_envelopes * Frame.header_bytes),
        w.relay_received );
      ( "relay bytes sent",
        ws.wire_bytes_up + (ws.span_frames_up * Frame.span_bytes),
        w.relay_sent );
      ( "relay frames received",
        ws.batch_inner_frames + ws.control_frames,
        w.relay_frames );
    ]
  in
  if List.exists (fun (_, _, r) -> r = None) (Tcp.Coordinator.reports coord)
  then Some "a relay never reported its counters"
  else
    List.find_map
      (fun (law, want, got) ->
        if want = got then None
        else Some (Printf.sprintf "%s: want %d, got %d" law want got))
      laws

let max_count_error (input : Workload.input) reg =
  Option.map
    (fun ds ->
      List.fold_left
        (fun acc (v, c) ->
          let truth = input.counts.(v) in
          Float.max acc
            (Float.abs (Float.of_int (c - truth)) /. Float.of_int truth))
        0.0 (Ds.sample ds))
    (Registry.ds_tracker reg 0)

(* The chunk loop.  Everything here is what the timed metrics see; the
   only benchmark-side work per chunk is two clock reads, one ledger
   counter read and three array stores (plus a span when tracing). *)
let feed ?tracer ~parent tr net (input : Workload.input) ~chunk_us ~msgs
    ~estimates =
  let sites = input.stream.Wd_workload.Stream.sites
  and items = input.stream.Wd_workload.Stream.items in
  let n = input.n in
  for c = 0 to Array.length chunk_us - 1 do
    let pos = c * Workload.chunk in
    let len = min Workload.chunk (n - pos) in
    let m0 = Network.total_messages net in
    let t0 = now () in
    Tracker_intf.observe_batch tr ~sites ~items ~pos ~len;
    let est = Tracker_intf.estimate tr in
    let t1 = now () in
    let m = Network.total_messages net - m0 in
    Array.unsafe_set chunk_us c ((t1 -. t0) *. 1e6);
    Array.unsafe_set estimates c est;
    Array.unsafe_set msgs c m;
    if tracer <> None then
      span tracer ~parent
        ~name:(if m > 0 then "feed.chunk.talk" else "feed.chunk.quiet")
        ~time:(pos + len) t0 t1
  done

let live_words () = (Gc.stat ()).Gc.live_words

(* [state] measures [state_words], at the price of two full heap scans
   outside the timed sections. *)
let run ?tracer ?(root_name = "bench.rep") ?parent ?(state = false) ~carrier
    ~query (input : Workload.input) =
  (* Every repetition starts from a collected heap, so that one
     repetition's garbage is not another's collection pause. *)
  Gc.full_major ();
  let live0 = if state then live_words () else 0 in
  let root = fresh_id tracer in
  let t_rep = now () in
  let pids = ref [] in
  let coord = ref None in
  let body () =
    let t0 = now () in
    let transport =
      match (carrier : Workload.carrier) with
      | Sim -> None
      | Tcp ->
        let c =
          Tcp.Coordinator.connect ~timeout:relay_timeout ~port:0
            ~sites:input.sites
            ~on_listening:(fun port ->
              pids := spawn_relays ~port (ranges input.sites))
            ()
        in
        coord := Some c;
        Some (Tcp.Coordinator.pack c)
    in
    let t1 = now () in
    if transport <> None then
      span tracer ~parent:root ~name:"transport.connect" ~time:0 t0 t1;
    let reg =
      Registry.create ?transport ~seed:Workload.registry_seed
        ~sites:input.sites [ query ]
    in
    let t2 = now () in
    span tracer ~parent:root ~name:"registry.create" ~time:0 t1 t2;
    let tr = Registry.packed reg in
    let net = Tracker_intf.network tr in
    let nchunks = Workload.chunks input.n in
    let chunk_us = Array.make nchunks 0.0
    and estimates = Array.make nchunks 0.0
    and msgs = Array.make nchunks 0 in
    let w0 = Gc.minor_words () in
    let t3 = now () in
    feed ?tracer ~parent:root tr net input ~chunk_us ~msgs ~estimates;
    let t4 = now () in
    let minor_words = Gc.minor_words () -. w0 in
    let state_words = if state then live_words () - live0 else 0 in
    let t5 = now () in
    Registry.close reg;
    let t6 = now () in
    span tracer ~parent:root ~name:"registry.close" ~time:input.n t5 t6;
    let relays_ok = reap !pids in
    pids := [];
    if not relays_ok then fail "a relay exited abnormally";
    let counters = counters_of tr net in
    if counters.updates <> input.n then
      fail "coordinator saw %d updates, want %d" counters.updates input.n;
    let wire =
      Option.map
        (fun c ->
          let w = wire_of c in
          Option.iter (fail "wire law: %s") (wire_law_error c w net);
          w)
        !coord
    in
    {
      connect_s = t1 -. t0;
      create_s = t2 -. t1;
      feed_s = t4 -. t3;
      close_s = t6 -. t5;
      chunk_us;
      msgs;
      estimates;
      minor_words;
      state_words;
      counters;
      wire;
      max_count_error = max_count_error input reg;
    }
  in
  (* On failure, stop the relays that are still running. *)
  let finish () =
    if !pids <> [] then begin
      Option.iter (fun c -> try Tcp.Coordinator.close c with _ -> ()) !coord;
      ignore (reap ~kill:true !pids : bool)
    end;
    span tracer ?parent ~span_id:root ~name:root_name ~time:input.n t_rep
      (now ())
  in
  Fun.protect ~finally:finish body

(* Bit-equality of two runs of one query on one stream: every per-chunk
   estimate, every ledger counter. *)
let same_run a b =
  let bits = Int64.bits_of_float in
  if a.counters <> b.counters then Some "ledger counters differ"
  else if
    not
      (Array.length a.estimates = Array.length b.estimates
      && Array.for_all2
           (fun x y -> Int64.equal (bits x) (bits y))
           a.estimates b.estimates)
  then Some "per-chunk estimates differ"
  else None
