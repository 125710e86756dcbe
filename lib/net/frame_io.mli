(** Blocking {!Wire.Frame} I/O over file descriptors, used by both
    halves of the stream carrier ({!Transport_tcp}): exact
    reads/writes, one-buffer frame construction (plain and
    span-stamped), the [Reject] helper, and the fixed-layout [Stats]
    report a relay answers [Finish] with. *)

type site_report = {
  frames_received : int;  (** [Deliver] + [Request_up] frames seen *)
  bytes_received : int;  (** their total on-wire size *)
  frames_sent : int;  (** [Up] frames written *)
  bytes_sent : int;  (** their total on-wire size *)
}
(** A relay's own frame counters (handshake and teardown frames —
    [Hello]/[Welcome]/[Finish]/[Stats]/[Reject] — are not counted on
    either side, so these compare directly against the coordinator's
    {!Transport.wire_stats}). *)

val ignore_sigpipe : unit -> unit
(** Turn SIGPIPE into EPIPE for the current process (idempotent). *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Write exactly [len] bytes, looping over short writes. *)

val read_exact : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Read exactly [len] bytes; raises [End_of_file] on EOF. *)

val frame_buf :
  kind:Wire.Frame.kind -> site:int -> payload_len:int -> Bytes.t
(** One frame as one buffer: encoded header followed by a zeroed
    payload the caller may poke before writing. *)

val write_frame :
  Unix.file_descr -> kind:Wire.Frame.kind -> site:int -> payload_len:int -> unit
(** [write_all] of a [frame_buf] with a zeroed payload. *)

val spanned_buf :
  kind:Wire.Frame.kind ->
  site:int ->
  payload_len:int ->
  span:Wire.Frame.span ->
  Bytes.t
(** Like {!frame_buf} with the span flag set and the 40-byte span block
    encoded between header and payload. *)

val read_frame :
  ?spans:Wd_obs.Span.t ->
  Unix.file_descr ->
  (Wire.Frame.header * Wire.Frame.span option * Bytes.t, Wire.Frame.error)
  result
(** Read one frame: header, span block when announced, payload.  With
    [spans], header decoding is additionally timed into the
    ["frame.decode"] histogram.  Raises [End_of_file] on a closed
    peer. *)

val set_timeouts : Unix.file_descr -> float -> unit
(** Arm SO_RCVTIMEO and SO_SNDTIMEO so every blocking operation on the
    descriptor is bounded. *)

val reject : Unix.file_descr -> string -> unit
(** Best-effort [Reject] frame carrying [reason]; write errors are
    swallowed (the peer may already be gone). *)

val stats_payload_len : int
(** Payload size of a [Stats] frame (4 int64 counters). *)

val send_stats : Unix.file_descr -> site:int -> site_report -> unit
(** Write the [Stats] frame a relay answers [Finish] with. *)

val decode_report : Bytes.t -> site_report
(** Parse a [Stats] payload (must be {!stats_payload_len} bytes). *)
