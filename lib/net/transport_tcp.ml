module F = Wire.Frame
module Span = Wd_obs.Span
open Frame_io

(* Raise [Failure] naming the operation and the typed decode error. *)
let frame_error what e =
  failwith (Printf.sprintf "transport_tcp: %s: %s" what (F.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Addresses: the only code that differs between a TCP port and a
   Unix-domain path is [sockaddr], [listen], [unlink] and the port the
   coordinator reports; everything that moves frames is shared. *)

type address = Port of int | Path of string

let address ~fn ?port ?path () =
  match (port, path) with
  | Some port, None -> Port port
  | None, Some path -> Path path
  | _ -> invalid_arg (fn ^ ": give exactly one of ~port and ~path")

let sockaddr ~host = function
  | Port port ->
    (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  | Path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)

(* A path outlives its listener; remove a stale one before binding and
   ours at close. *)
let unlink = function
  | Port _ -> ()
  | Path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Bind and listen on loopback or on the path; returns the listener and
   the bound address (a [Port 0] request resolved to its ephemeral
   port). *)
let listen address ~backlog ~timeout =
  unlink address;
  let domain, addr = sockaddr ~host:"127.0.0.1" address in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd backlog;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> (fd, Port port)
    | Unix.ADDR_UNIX _ -> (fd, address)
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

(* One relay connection carrying a contiguous range of sites.  Down-
   direction frames accumulate in [buf] as complete inner frames and
   leave in one batch-envelope write per flush. *)
type conn = {
  fd : Unix.file_descr;
  first : int;
  count : int;
  buf : Buffer.t;
  mutable pending_inner : int;
  mutable report : site_report option;
}

type coord = {
  net : Network.t;
  timeout : float;
  flush_bytes : int;
  listen_fd : Unix.file_descr;
  address : address;  (* as bound *)
  evloop : Evloop.t;
  mutable conns : conn list; (* accept order *)
  site_conn : conn option array;
  down : bool array;
  mutable frames_up : int;
  mutable frames_down : int;
  mutable wire_bytes_up : int;
  mutable wire_bytes_down : int;
  mutable control_frames : int;
  mutable control_bytes : int;
  mutable radio_copy_bytes : int;
  mutable skipped_up : int;
  mutable skipped_down : int;
  mutable reconnects : int;
  mutable span_frames_up : int;
  mutable span_frames_down : int;
  mutable batch_envelopes : int;
  mutable batch_inner_frames : int;
  mutable on_poll : (unit -> unit) option;
  mutable closed : bool;
}

let sites_of t = Array.length t.site_conn

(* Drain a connection's buffered inner frames as one batch envelope in a
   single write — the writev-style syscall per flush. *)
let flush_conn t conn =
  if conn.pending_inner > 0 then begin
    let len = Buffer.length conn.buf in
    let out = Bytes.create (F.header_bytes + len) in
    F.encode_batch_header out ~pos:0 ~count:conn.pending_inner ~length:len;
    Buffer.blit conn.buf 0 out F.header_bytes len;
    write_all conn.fd out 0 (Bytes.length out);
    t.batch_envelopes <- t.batch_envelopes + 1;
    t.batch_inner_frames <- t.batch_inner_frames + conn.pending_inner;
    Buffer.clear conn.buf;
    conn.pending_inner <- 0
  end

(* Append one Deliver inner frame (span-stamped when a recorder is on
   the ledger) to the connection buffer; flushing happens on high water,
   before any Request_up on the same connection, and at close. *)
let buffer_deliver t conn ~site ~payload =
  (match Network.spans t.net with
  | None -> Buffer.add_bytes conn.buf (frame_buf ~kind:F.Deliver ~site ~payload_len:payload)
  | Some r ->
    let t0 = Span.now r in
    let span =
      {
        F.trace_id = Span.trace_id r;
        span_id = Span.current_parent r;
        parent_id = Span.root_parent;
        t1_ns = t0;
        t2_ns = 0L;
      }
    in
    let buf = spanned_buf ~kind:F.Deliver ~site ~payload_len:payload ~span in
    Span.observe_ns r ~name:"frame.encode" (Int64.sub (Span.now r) t0);
    Buffer.add_bytes conn.buf buf;
    t.span_frames_down <- t.span_frames_down + 1);
  conn.pending_inner <- conn.pending_inner + 1;
  if Buffer.length conn.buf >= t.flush_bytes then flush_conn t conn

let conn_of_site t site =
  match t.site_conn.(site) with
  | Some conn -> conn
  | None -> failwith "transport_tcp: site has no connection"

let deliver t ~site ~payload =
  if t.down.(site) then t.skipped_down <- t.skipped_down + Wire.message ~payload
  else begin
    buffer_deliver t (conn_of_site t site) ~site ~payload;
    t.frames_down <- t.frames_down + 1;
    t.wire_bytes_down <- t.wire_bytes_down + F.bytes ~payload
  end

let medium_broadcast t ~payload =
  let wrote = ref 0 in
  for site = 0 to sites_of t - 1 do
    if not t.down.(site) then begin
      buffer_deliver t (conn_of_site t site) ~site ~payload;
      incr wrote;
      if !wrote = 1 then begin
        t.frames_down <- t.frames_down + 1;
        t.wire_bytes_down <- t.wire_bytes_down + F.bytes ~payload
      end
      else t.radio_copy_bytes <- t.radio_copy_bytes + F.bytes ~payload
    end
  done;
  if !wrote = 0 then t.skipped_down <- t.skipped_down + Wire.message ~payload

(* Synchronous Request_up -> Up round trip, multiplexed: the connection
   is flushed first so stream ordering guarantees the relay has consumed
   every buffered Deliver before it answers, and the reply is therefore
   the next frame on this connection.  With a recorder attached the
   request ships a span context (fresh id, parented under the ledger's
   open message span) plus the send stamp; the relay echoes the ids with
   its own receive/send stamps, and two spans come out: the relay's half
   ([relay.turnaround], stamped in the other process) as a child of the
   full round trip ([request_up], stamped here). *)
let request_up t ~site ~payload =
  if t.down.(site) then t.skipped_up <- t.skipped_up + Wire.message ~payload
  else begin
    let conn = conn_of_site t site in
    flush_conn t conn;
    let fd = conn.fd in
    let spans = Network.spans t.net in
    let pending =
      match spans with
      | None ->
        let buf = frame_buf ~kind:F.Request_up ~site ~payload_len:4 in
        Bytes.set_int32_le buf F.header_bytes (Int32.of_int payload);
        write_all fd buf 0 (Bytes.length buf);
        None
      | Some r ->
        let parent = Span.current_parent r in
        let rtt_id = Span.fresh_id r in
        let t0 = Span.now r in
        let span =
          {
            F.trace_id = Span.trace_id r;
            span_id = rtt_id;
            parent_id = parent;
            t1_ns = t0;
            t2_ns = 0L;
          }
        in
        let buf = spanned_buf ~kind:F.Request_up ~site ~payload_len:4 ~span in
        Bytes.set_int32_le buf
          (F.header_bytes + F.span_bytes)
          (Int32.of_int payload);
        Span.observe_ns r ~name:"frame.encode" (Int64.sub (Span.now r) t0);
        write_all fd buf 0 (Bytes.length buf);
        t.span_frames_down <- t.span_frames_down + 1;
        Some (r, parent, rtt_id, t0)
    in
    t.control_frames <- t.control_frames + 1;
    t.control_bytes <- t.control_bytes + F.bytes ~payload:4;
    let deadline = Unix.gettimeofday () +. t.timeout in
    if not (Evloop.await_readable fd ~deadline) then
      failwith
        (Printf.sprintf
           "transport_tcp: timed out after %gs waiting for site %d's up frame"
           t.timeout site);
    match read_frame ?spans fd with
    | exception End_of_file ->
      failwith "transport_tcp: relay closed connection mid-exchange"
    | Error e -> frame_error "reading up frame" e
    | Ok (h, relay_span, _)
      when h.F.kind = F.Up && h.F.site = site && h.F.length = payload ->
      t.frames_up <- t.frames_up + 1;
      t.wire_bytes_up <- t.wire_bytes_up + F.bytes ~payload;
      if h.F.has_span then t.span_frames_up <- t.span_frames_up + 1;
      (match pending with
      | None -> ()
      | Some (r, parent, rtt_id, t0) ->
        let t1 = Span.now r in
        let time = Network.time t.net in
        (match relay_span with
        | Some sp ->
          ignore
            (Span.finish r ~name:"relay.turnaround" ~site ~parent:rtt_id
               ~time ~start_ns:sp.F.t1_ns ~end_ns:sp.F.t2_ns ()
              : Span.ctx)
        | None -> ());
        ignore
          (Span.finish r ~name:"request_up" ~site ~parent ~span_id:rtt_id
             ~time ~start_ns:t0 ~end_ns:t1 ()
            : Span.ctx))
    | Ok (h, _, _) ->
      failwith
        (Printf.sprintf
           "transport_tcp: expected up(site=%d,len=%d), got %s(site=%d,len=%d)"
           site payload
           (F.kind_to_string h.F.kind)
           h.F.site h.F.length)
  end

(* Crash windows are logical detaches: the connection stays open (it
   may carry the relay's other sites), charges against a down site are
   recorded as skipped, and window exit counts a reconnect without
   socket churn.  The scan only runs when the plan can crash at all, so
   a clean k=1000 run pays nothing per tick. *)
let on_time t time =
  let plan = Network.faults t.net in
  if Faults.has_crashes plan then
    for site = 0 to sites_of t - 1 do
      let is_down = Faults.is_down plan ~site ~time in
      if is_down && not t.down.(site) then t.down.(site) <- true
      else if (not is_down) && t.down.(site) then begin
        t.down.(site) <- false;
        t.reconnects <- t.reconnects + 1
      end
    done;
  match t.on_poll with None -> () | Some f -> f ()

let install_tap t =
  Network.set_tap t.net
    (Some
       {
         Network.on_up = (fun ~site ~payload ~lost:_ -> request_up t ~site ~payload);
         on_down = (fun ~site ~payload ~lost:_ -> deliver t ~site ~payload);
         on_medium = (fun ~payload -> medium_broadcast t ~payload);
       })

let finish_conn t conn =
  (try
     flush_conn t conn;
     write_frame conn.fd ~kind:F.Finish ~site:conn.first ~payload_len:0;
     match read_frame conn.fd with
     | Ok (h, _, payload)
       when h.F.kind = F.Stats && h.F.length = stats_payload_len ->
       conn.report <- Some (decode_report payload)
     | _ | (exception End_of_file) -> ()
   with Unix.Unix_error _ -> ());
  Evloop.remove t.evloop conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Network.set_tap t.net None;
    List.iter (finish_conn t) t.conns;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    unlink t.address
  end

let wire_stats t =
  Some
    {
      Transport.frames_up = t.frames_up;
      frames_down = t.frames_down;
      wire_bytes_up = t.wire_bytes_up;
      wire_bytes_down = t.wire_bytes_down;
      control_frames = t.control_frames;
      control_bytes = t.control_bytes;
      radio_copy_bytes = t.radio_copy_bytes;
      skipped_up = t.skipped_up;
      skipped_down = t.skipped_down;
      reconnects = t.reconnects;
      span_frames_up = t.span_frames_up;
      span_frames_down = t.span_frames_down;
      batch_envelopes = t.batch_envelopes;
      batch_inner_frames = t.batch_inner_frames;
    }

module Backend = Transport.Of_carrier (struct
  type t = coord

  let name = "tcp"
  let ledger t = t.net
  let on_time = on_time
  let close = close
  let wire_stats = wire_stats
end)

(* Accept one connection and run the server half of the handshake: a
   ranged Hello (site field = first site, 4-byte payload = site count)
   answered with Welcome, or a Reject naming what was wrong — a peer
   speaking an unknown protocol version gets the typed
   [Version_mismatch] text back.  Returns [true] if a range was
   claimed. *)
let accept_handshake t ~claimed =
  let fd, _ = Unix.accept t.listen_fd in
  set_timeouts fd t.timeout;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let refuse reason =
    reject fd reason;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    false
  in
  match read_frame fd with
  | exception End_of_file ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    false
  | Error e -> refuse (F.error_to_string e)
  | Ok (h, _, _) when h.F.kind <> F.Hello ->
    refuse (Printf.sprintf "expected hello, got %s" (F.kind_to_string h.F.kind))
  | Ok (h, _, _) when h.F.length <> 4 ->
    refuse "expected ranged hello (4-byte site-count payload)"
  | Ok (h, _, payload) ->
    let first = h.F.site in
    let count = Int32.to_int (Bytes.get_int32_le payload 0) in
    let sites = sites_of t in
    if count < 1 || first < 0 || first + count > sites then
      refuse (Printf.sprintf "site range %d+%d out of range (%d sites)" first count sites)
    else begin
      let overlap = ref false in
      for site = first to first + count - 1 do
        if claimed.(site) then overlap := true
      done;
      if !overlap then
        refuse (Printf.sprintf "site range %d+%d overlaps an accepted relay" first count)
      else begin
        write_frame fd ~kind:F.Welcome ~site:first ~payload_len:0;
        let conn =
          {
            fd;
            first;
            count;
            buf = Buffer.create 4096;
            pending_inner = 0;
            report = None;
          }
        in
        t.conns <- t.conns @ [ conn ];
        Evloop.add t.evloop fd;
        for site = first to first + count - 1 do
          claimed.(site) <- true;
          t.site_conn.(site) <- Some conn
        done;
        true
      end
    end

(* The port a TCP listener is bound to; 0 on a path. *)
let bound_port t = match t.address with Port port -> port | Path _ -> 0

module Coordinator = struct
  include Backend

  let connect ?cost_model ?(timeout = 30.) ?(flush_bytes = 8192)
      ?on_listening ?port ?path ~sites () =
    let address =
      address ~fn:"Transport_tcp.Coordinator.connect" ?port ?path ()
    in
    ignore_sigpipe ();
    let listen_fd, address = listen address ~backlog:(sites + 8) ~timeout in
    let t =
      {
        net = Network.create ?cost_model ~sites ();
        timeout;
        flush_bytes;
        listen_fd;
        address;
        evloop = Evloop.create ();
        conns = [];
        site_conn = Array.make sites None;
        down = Array.make sites false;
        frames_up = 0;
        frames_down = 0;
        wire_bytes_up = 0;
        wire_bytes_down = 0;
        control_frames = 0;
        control_bytes = 0;
        radio_copy_bytes = 0;
        skipped_up = 0;
        skipped_down = 0;
        reconnects = 0;
        span_frames_up = 0;
        span_frames_down = 0;
        batch_envelopes = 0;
        batch_inner_frames = 0;
        on_poll = None;
        closed = false;
      }
    in
    (* The bound port is known (0 requests an ephemeral one); tell the
       caller before blocking on accepts so it can spawn relays. *)
    Option.iter (fun f -> f (bound_port t)) on_listening;
    (try
       (* One wall-clock deadline covers the whole accept phase. *)
       let deadline = Unix.gettimeofday () +. timeout in
       let claimed = Array.make sites false in
       let missing () =
         Array.fold_left (fun n c -> if c then n else n + 1) 0 claimed
       in
       let all () = Array.for_all Fun.id claimed in
       while not (all ()) do
         if not (Evloop.await_readable t.listen_fd ~deadline) then
           failwith
             (Printf.sprintf
                "transport_tcp: timed out after %gs waiting for %d of %d \
                 site(s) to connect"
                timeout (missing ()) sites);
         ignore (accept_handshake t ~claimed : bool)
       done
     with e ->
       close t;
       raise e);
    install_tap t;
    t

  let pack c = Transport.Packed ((module Backend), c)
  let port = bound_port

  let reports c =
    List.map (fun conn -> (conn.first, conn.count, conn.report)) c.conns

  let set_on_poll c f = c.on_poll <- f
end

let connect ?cost_model ?timeout ?flush_bytes ?on_listening ?port ?path ~sites
    () =
  Coordinator.pack
    (Coordinator.connect ?cost_model ?timeout ?flush_bytes ?on_listening ?port
       ?path ~sites ())

(* ------------------------------------------------------------------ *)
(* Relay                                                               *)
(* ------------------------------------------------------------------ *)

module Relay = struct
  let connect_once ~host address =
    let domain, addr = sockaddr ~host address in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception
        (Unix.Unix_error
           ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.EAGAIN
             | Unix.EINTR | Unix.ETIMEDOUT ),
             _,
             _ )
         as e) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

  (* Deadline-based connect retry: the budget is wall-clock, not an
     attempt count, so a slow-to-bind coordinator costs exactly the time
     it takes.  The short sleep between polls only paces the loop. *)
  let connect_retry ~deadline ~timeout ~host address =
    let rec go () =
      match connect_once ~host address with
      | Ok fd ->
        set_timeouts fd timeout;
        (* Unsupported on a Unix-domain socket, which has no Nagle
           delay to turn off. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        fd
      | Error _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        go ()
      | Error e -> raise e
    in
    go ()

  let handshake fd ~first_site ~count =
    let buf = frame_buf ~kind:F.Hello ~site:first_site ~payload_len:4 in
    Bytes.set_int32_le buf F.header_bytes (Int32.of_int count);
    write_all fd buf 0 (Bytes.length buf);
    match read_frame fd with
    | exception End_of_file ->
      failwith "transport_tcp: coordinator closed connection during handshake"
    | Error e -> frame_error "handshake" e
    | Ok (h, _, _) when h.F.kind = F.Welcome -> ()
    | Ok (h, _, payload) when h.F.kind = F.Reject ->
      failwith
        (Printf.sprintf "transport_tcp: rejected by coordinator: %s"
           (Bytes.to_string payload))
    | Ok (h, _, _) ->
      failwith
        (Printf.sprintf "transport_tcp: expected welcome, got %s"
           (F.kind_to_string h.F.kind))

  let run ?(connect_timeout = 10.) ?(timeout = 30.) ?(host = "127.0.0.1")
      ?port ?path ~first_site ~count () =
    let address = address ~fn:"Transport_tcp.Relay.run" ?port ?path () in
    ignore_sigpipe ();
    let frames_received = ref 0 in
    let bytes_received = ref 0 in
    let frames_sent = ref 0 in
    let bytes_sent = ref 0 in
    let deadline = Unix.gettimeofday () +. connect_timeout in
    let fd = connect_retry ~deadline ~timeout ~host address in
    (try handshake fd ~first_site ~count
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let report () =
      {
        frames_received = !frames_received;
        bytes_received = !bytes_received;
        frames_sent = !frames_sent;
        bytes_sent = !bytes_sent;
      }
    in
    let in_range site = site >= first_site && site < first_site + count in
    let count_deliver (h : F.header) =
      if h.F.kind <> F.Deliver then
        failwith
          (Printf.sprintf "transport_tcp: unexpected %s frame inside a batch"
             (F.kind_to_string h.F.kind));
      if not (in_range h.F.site) then
        failwith
          (Printf.sprintf "transport_tcp: deliver for site %d outside %d+%d"
             h.F.site first_site count);
      let span_extra = if h.F.has_span then F.span_bytes else 0 in
      incr frames_received;
      bytes_received := !bytes_received + F.bytes ~payload:h.F.length + span_extra
    in
    let answer_up (h : F.header) rspan payload recv_ns =
      if h.F.length <> 4 then
        failwith "transport_tcp: malformed request-up frame";
      let span_extra = if h.F.has_span then F.span_bytes else 0 in
      incr frames_received;
      bytes_received := !bytes_received + F.bytes ~payload:4 + span_extra;
      let wanted = Int32.to_int (Bytes.get_int32_le payload 0) in
      if wanted < 0 || wanted > F.max_payload then
        failwith "transport_tcp: bad requested up-payload size";
      let site = h.F.site in
      match rspan with
      | Some sp ->
        let reply =
          {
            F.trace_id = sp.F.trace_id;
            span_id = sp.F.span_id;
            parent_id = sp.F.parent_id;
            t1_ns = recv_ns;
            t2_ns = Clock.ns ();
          }
        in
        let buf = spanned_buf ~kind:F.Up ~site ~payload_len:wanted ~span:reply in
        write_all fd buf 0 (Bytes.length buf);
        incr frames_sent;
        bytes_sent := !bytes_sent + F.bytes ~payload:wanted + F.span_bytes
      | None ->
        write_frame fd ~kind:F.Up ~site ~payload_len:wanted;
        incr frames_sent;
        bytes_sent := !bytes_sent + F.bytes ~payload:wanted
    in
    let finished = ref false in
    while not !finished do
      (* The relay's event loop: block (deadline-bounded) until the
         multiplexed connection is readable, then drain one frame. *)
      if
        not
          (Evloop.await_readable fd
             ~deadline:(Unix.gettimeofday () +. timeout))
      then failwith "transport_tcp: timed out waiting for coordinator";
      match read_frame fd with
      | exception End_of_file ->
        failwith "transport_tcp: coordinator closed connection mid-run"
      | Error e -> frame_error "reading frame" e
      | Ok (h, rspan, payload) -> (
        let recv_ns = if h.F.has_span then Clock.ns () else 0L in
        match h.F.kind with
        | F.Batch -> (
          (* The payload is the inner region; the envelope's site field
             is the announced inner-frame count.  The envelope header is
             real received traffic on top of the inner frames' own
             stand-alone accounting. *)
          match F.decode_batch payload ~count:h.F.site with
          | Error e -> frame_error "decoding batch envelope" e
          | Ok inners ->
            bytes_received := !bytes_received + F.header_bytes;
            List.iter (fun (ih, _, _) -> count_deliver ih) inners)
        | F.Deliver -> count_deliver h
        | F.Request_up -> answer_up h rspan payload recv_ns
        | F.Finish ->
          Frame_io.send_stats fd ~site:first_site (report ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          finished := true
        | F.Reject ->
          failwith
            (Printf.sprintf "transport_tcp: rejected by coordinator: %s"
               (Bytes.to_string payload))
        | F.Hello | F.Welcome | F.Up | F.Stats ->
          failwith
            (Printf.sprintf "transport_tcp: unexpected %s frame"
               (F.kind_to_string h.F.kind)))
    done;
    report ()
end
