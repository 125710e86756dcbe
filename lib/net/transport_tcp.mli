(** The stream carrier of {!Transport}: sites served by relay processes
    over stream sockets, many sites multiplexed per connection, frame
    batching on the wire.

    The protocol engine and the {!Network.t} ledger stay in the
    coordinator process — fault rolls, retry loops and byte charges run
    exactly as in the simulator, consuming the same randomness in the
    same order.  This carrier installs a {!Network.tap} that only
    {e realizes} ledger charges as real {!Wire.Frame}s, so a fixed-seed
    run is byte-identical (estimates, ledger, logical trace) to the
    simulator by construction, while every accounted byte (modulo the
    documented header-size difference) crosses a process boundary.

    - {b Addresses}: the coordinator listens either on a loopback TCP
      port ([~port]) or on a Unix-domain socket path ([~path]), and
      relays connect to the same address.  Only binding, connecting
      and removing the path differ between the two; every frame is
      handled by the same code.  One site per relay over a path
      ([count = 1]) gives the one-process-per-site shape.
    - {b Event loop}: all readiness waits go through {!Evloop} (select
      today, poll/epoll behind the same interface) and are
      wall-clock-deadline bounded.
    - {b Multiplexing}: each relay connection carries a contiguous
      range of sites ([first_site, first_site + count)), declared in a
      ranged [Hello] (site field = first site, 4-byte payload = count).
      Ranges must partition [0, sites); overlaps, bad versions and
      malformed handshakes are answered with a typed [Reject] and do
      not count toward the quorum.
    - {b Frames}: a down-direction ledger charge becomes one [Deliver]
      frame (payload zeros of the accounted length — the engine is
      centralized, so frames carry size, not state); an up-direction
      charge becomes one [Request_up] control frame (its 4-byte payload
      names the requested length) answered by the relay with one [Up]
      frame of exactly that payload; a {!Network.Radio_broadcast}
      medium charge becomes one [Deliver] per connected site, the first
      accounted as the transmission and the rest as
      {!Transport.wire_stats.radio_copy_bytes}.
    - {b Batching}: down-direction [Deliver] frames accumulate per
      connection and leave as one {!Wire.Frame.Batch} envelope per
      flush — a single write call coalescing many complete v2 inner
      frames (span blocks included, carried unchanged).  Flushes happen
      on high water ([flush_bytes]), before any [Request_up] on the same
      connection (stream ordering then guarantees the relay consumed
      every buffered Deliver before answering), and at close.  The up
      direction stays synchronous and unbatched.
    - {b Spans}: with a recorder on the ledger ({!Network.set_spans})
      every frame carries a {!Wire.Frame.span} block.  The request ships
      the coordinator's send stamp, the relay echoes the ids with its
      own receive/send stamps, and the coordinator emits a [request_up]
      round-trip span with a [relay.turnaround] child stamped in the
      relay process — a true cross-process latency measurement.
    - {b Crash windows are logical}: window entry detaches the site
      (charges are recorded as [skipped_up]/[skipped_down], nothing is
      written) and window exit counts a reconnect — no socket churn.
      The per-tick scan only runs when the fault plan contains crashes,
      so a clean k=1000 run pays nothing per tick.

    At {!Transport.close} every relay receives [Finish] and answers with
    a [Stats] frame of its own counters, an independent receiver-side
    measurement.  The reconciliation laws: a relay's received bytes are
    [wire_bytes_down + radio_copy_bytes + control_bytes
     + span_frames_down * Wire.Frame.span_bytes
     + batch_envelopes * Wire.Frame.header_bytes],
    its sent bytes are
    [wire_bytes_up + span_frames_up * Wire.Frame.span_bytes], and its
    received frames are [batch_inner_frames + control_frames]. *)

(** The coordinator half: owns the listener, the ledger, the tap and
    the per-connection batch buffers. *)
module Coordinator : sig
  include Transport.S

  val connect :
    ?cost_model:Network.cost_model ->
    ?timeout:float ->
    ?flush_bytes:int ->
    ?on_listening:(int -> unit) ->
    ?port:int ->
    ?path:string ->
    sites:int ->
    unit ->
    t
  (** Listen on [127.0.0.1:port] ([port = 0] requests an ephemeral
      port) or on the Unix-domain socket [path] (unlinking a stale one
      first, and again at close) — exactly one of the two must be given,
      else [Invalid_argument].  Then call [on_listening] with the bound
      port (0 on a path) — the hook to spawn relays from — and block
      until ranged handshakes cover all [sites].  One wall-clock
      [timeout] (default 30s) bounds the whole accept phase and every
      later blocking operation; [flush_bytes] (default 8192) is the
      batch high-water mark.  Raises [Failure] naming the missing site
      count on timeout, never a raw [Unix_error]. *)

  val pack : t -> Transport.t

  val port : t -> int
  (** The actually-bound listener port; 0 on a path. *)

  val reports : t -> (int * int * Frame_io.site_report option) list
  (** Per-connection [(first_site, count, report)] in accept order;
      reports are collected by [close] ([None] marks a relay that never
      answered [Finish]). *)

  val set_on_poll : t -> (unit -> unit) option -> unit
  (** Install a driver hook run on every [set_time] tick, after crash
      windows are handled — the natural place to poll a
      {!Metrics_http.t} endpoint from the synchronous event loop.  A
      tracker ticks before each message it moves, at the end of each
      [observe]/[observe_batch] call, and on every update while the
      fault plan has crash windows (the clock contract of
      {!Transport.S.set_time}), so the hook should throttle itself if
      its work is not trivially cheap. *)
end

(** The relay half: one process serving a contiguous range of sites
    over a single multiplexed connection (run via [wdmon relay]).  It
    holds no protocol state — sketches, thresholds and estimates live
    in the coordinator — it answers the wire. *)
module Relay : sig
  val run :
    ?connect_timeout:float ->
    ?timeout:float ->
    ?host:string ->
    ?port:int ->
    ?path:string ->
    first_site:int ->
    count:int ->
    unit ->
    Frame_io.site_report
  (** Connect to the coordinator at [host:port] (default host
      127.0.0.1) or at the Unix-domain socket [path] — exactly one of
      [port] and [path], else [Invalid_argument] — retrying on refusal
      until the wall-clock [connect_timeout] deadline (default 10s; the
      relay may start before the coordinator binds), declare the site
      range, then serve frames until [Finish]: batch envelopes are
      decoded with {!Wire.Frame.decode_batch} and validated (inner
      frames must be in-range [Deliver]s), [Request_up]s are answered
      with [Up] frames of the requested size.  Returns (and reports in
      its [Stats] frame) connection-level counters.  Raises [Failure]
      on a [Reject] (e.g. version mismatch, with the peer's reason),
      malformed frames, or a coordinator silence longer than
      [timeout]. *)
end

val connect :
  ?cost_model:Network.cost_model ->
  ?timeout:float ->
  ?flush_bytes:int ->
  ?on_listening:(int -> unit) ->
  ?port:int ->
  ?path:string ->
  sites:int ->
  unit ->
  Transport.t
(** [Coordinator.connect] followed by {!Coordinator.pack}. *)
