(** Wire-size constants for byte-for-byte communication accounting.

    The paper measures the communication cost of every protocol "as the
    number of bytes sent between the coordinator and each remote site",
    comparing approximate protocols against the exact baselines byte for
    byte.  This module fixes the sizes used everywhere so that those ratios
    are consistent and documented in one place.

    Items come from the integer domain [\[U\]] with [U = 2^32] or [2^64];
    we account 8 bytes per item and per count, matching the wider domain. *)

val header_bytes : int
(** Per-message framing: message tag + site identifier (4 bytes). *)

val item_bytes : int
(** One stream item / identifier (8 bytes). *)

val count_bytes : int
(** One occurrence count or distinct-count estimate (8 bytes). *)

val level_bytes : int
(** One sampling level, [0..64] (1 byte). *)

val ack_bytes : int
(** One delivery acknowledgement payload (1 byte); used by the recovery
    protocol when a fault plan is active. *)

val message : payload:int -> int
(** [message ~payload] is the full cost of one message: header + payload. *)

val items : int -> int
(** [items n] is the payload size of [n] packed items. *)

val item_count_pairs : int -> int
(** [item_count_pairs n] is the payload size of [n] (item, count) pairs. *)

(** {1 Frames}

    The on-wire encoding used by the stream carrier
    ({!Transport_tcp}): every message travels as one length-prefixed,
    version-tagged frame.  The frame header is deliberately {e larger}
    than the simulator's accounting {!header_bytes} (real framing needs a
    magic, a version and an explicit length); the transport reconciles
    the two with the documented formula
    [wire bytes = ledger bytes + frames * (Frame.header_bytes -
    header_bytes)].

    Layout, little-endian:
    {v
      offset 0  magic      2 bytes  "WD"
      offset 2  version    1 byte   {!Frame.version}
      offset 3  kind       1 byte   {!Frame.kind}; top bit = span flag (v2)
      offset 4  site       4 bytes  sender / addressee site id
      offset 8  length     4 bytes  payload length in bytes
      offset 12 span ctx   40 bytes, only when the span flag is set
      ...       payload    [length] bytes
    v}

    Version 2 (current) optionally carries a 40-byte span-context block
    between header and payload, announced by the top bit of the kind
    byte ({!Frame.span_flag}) — this is how causal trace context crosses
    process boundaries.  Version 1 frames (no span flag, no block) are
    still accepted on decode, so a v1 peer's frames remain readable; the
    fixed 12-byte header is common to both.

    Decoding rejects wrong magics, unknown kinds, negative or oversized
    lengths, and — the protocol-version gate — any version byte other
    than {!Frame.version} or {!Frame.legacy_version}, each with a
    distinct typed {!Frame.error}. *)

module Frame : sig
  val magic : string
  (** ["WD"], the two leading bytes of every frame. *)

  val version : int
  (** Protocol version written by this build (2: optional span-context
      block); bumped on any incompatible frame or handshake change. *)

  val legacy_version : int
  (** Oldest version still accepted on decode (1: no span support). *)

  val header_bytes : int
  (** Fixed frame-header size (12 bytes), identical across versions. *)

  val span_bytes : int
  (** Size of the optional span-context block (40 bytes). *)

  val span_flag : int
  (** Kind-byte bit announcing a span-context block ([0x80]). *)

  val max_payload : int
  (** Upper bound on a frame payload accepted by {!decode_header}
      (16 MiB); a defense against garbage lengths, far above any sketch. *)

  (** Frame kinds of the relay/coordinator protocol. *)
  type kind =
    | Hello
        (** relay -> coordinator: handshake carrying the relay's first
            site id, with the site count as a 4-byte payload *)
    | Welcome  (** coordinator -> relay: handshake accepted *)
    | Deliver  (** coordinator -> site: one down-direction protocol message *)
    | Request_up
        (** coordinator -> site: control frame asking the site to emit one
            {!Up} frame; the 4-byte payload is the requested payload size *)
    | Up  (** site -> coordinator: one up-direction protocol message *)
    | Finish  (** coordinator -> site: end of run, report {!Stats} *)
    | Stats
        (** site -> coordinator: final per-direction byte/frame counters *)
    | Reject
        (** either direction: handshake refused (version mismatch); the
            payload is a UTF-8 reason *)
    | Batch
        (** coordinator -> site: envelope coalescing several complete
            frames into one wire write; the site field carries the
            inner-frame count, the length field the size of the inner
            region, and the payload is the inner frames back to back,
            carried unchanged (span blocks included).  Nesting is
            forbidden. *)

  val kind_to_string : kind -> string

  type header = { kind : kind; site : int; length : int; has_span : bool }
  (** [has_span] is true when a {!span} block sits between this header
      and the payload (version 2 frames only). *)

  type span = {
    trace_id : int64;
    span_id : int64;
    parent_id : int64;
    t1_ns : int64;
    t2_ns : int64;
  }
  (** The span-context block: the run-scoped trace id, the sender's span
      and its parent, and two wall-clock stamps whose meaning depends on
      the frame kind (a [Request_up] carries the coordinator's send
      time; the [Up] reply carries the relay's receive and send
      times). *)

  (** Decode failures, each naming exactly what was wrong.  A
      [Version_mismatch] is the typed rejection the protocol-version byte
      exists for. *)
  type error =
    | Bad_magic of string  (** the two leading bytes, verbatim *)
    | Version_mismatch of { expected : int; got : int }
    | Bad_kind of int
    | Bad_length of int
    | Truncated of { wanted : int; got : int }
        (** fewer bytes available than the header (or its length field)
            announced *)
    | Bad_count of { expected : int; got : int }
        (** a batch envelope whose inner region parsed clean but held a
            different number of frames than the envelope announced *)

  val error_to_string : error -> string

  val bytes : payload:int -> int
  (** [bytes ~payload] is the full on-wire size of one frame:
      [header_bytes + payload]. *)

  val encode_header : Bytes.t -> pos:int -> kind:kind -> site:int -> length:int -> unit
  (** Write a 12-byte header at [pos] (no span flag); the buffer must
      have room. *)

  val encode_header_spanned :
    Bytes.t -> pos:int -> kind:kind -> site:int -> length:int -> unit
  (** Like {!encode_header} with the span flag set: the sender must
      follow the header with an {!encode_span} block. *)

  val decode_header : Bytes.t -> pos:int -> (header, error) result
  (** Parse a 12-byte header at [pos].  Returns [Truncated] if fewer than
      {!header_bytes} bytes remain. *)

  val encode_span : Bytes.t -> pos:int -> span -> unit
  (** Write a 40-byte span-context block at [pos]. *)

  val decode_span : Bytes.t -> pos:int -> (span, error) result
  (** Parse a 40-byte span-context block at [pos].  Returns [Truncated]
      if fewer than {!span_bytes} bytes remain. *)

  (** {2 Batch envelopes}

      The TCP backend coalesces per-site deliveries into one write per
      flush: a {!Batch} frame whose payload is several complete v2
      frames back to back, each with its own header and optional span
      block, byte-for-byte as they would have travelled alone. *)

  val encode_batch_header : Bytes.t -> pos:int -> count:int -> length:int -> unit
  (** Write a batch-envelope header at [pos]: kind {!Batch}, the site
      field carrying [count] (inner frames) and the length field
      [length] (total bytes of the inner region). *)

  val decode_batch :
    Bytes.t -> count:int -> ((header * span option * int) list, error) result
  (** [decode_batch buf ~count] parses [buf] — exactly the payload
      region of a batch envelope announcing [count] inner frames — into
      [(header, span, payload offset)] triples in wire order, payloads
      left in place in [buf].  Allocation is bounded by the region size.
      Typed failures: short headers/spans/payloads (including stomped
      inner length fields) are [Truncated] against the region end, a
      nested {!Batch} is [Bad_kind], a clean parse with the wrong number
      of frames is [Bad_count]. *)
end
