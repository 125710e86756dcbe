(** Reading and writing multi-site streams as files.

    Two formats:

    - {e CSV}: one `site,item` pair per line (a header line
      `site,item` is written and tolerated on read) — interoperable with
      external tooling and real traces exported from flow logs;
    - {e binary}: a small magic header then fixed 16-byte little-endian
      records — compact and fast for large replays.

    Both preserve arrival order exactly, so an experiment on a saved
    trace reproduces the in-memory run bit for bit.

    Malformed input is rejected with the typed {!error} below — the same
    discipline as {!Wd_net.Wire.Frame.error} on the wire carrier:
    loaders never guess, never silently shorten, and name what they
    found. *)

(** Why a load was rejected. *)
type error =
  | Bad_magic of { expected : string; got : string }
      (** The binary header is not [WDTRACE1]. *)
  | Truncated of { wanted : int; got : int }
      (** A read (header, length, or record) needed [wanted] bytes but
          the file ended after [got]. *)
  | Bad_count of int  (** The record-count field is negative. *)
  | Malformed_line of { line : int; text : string }
      (** A CSV line is not a [site,item] pair of integers with
          [site >= 0] (1-based line number). *)

exception Error of string * error
(** [Error (path, error)]: every loader failure.  A printer is
    registered, so uncaught errors render readably. *)

val error_to_string : error -> string

val save_csv : string -> Stream.t -> unit
(** [save_csv path stream] writes the stream (with a header line). *)

val load_csv : string -> Stream.t
(** Raises {!Error} with {!Malformed_line} on malformed input (wrong
    field count, non-integer fields, negative site). *)

val save_binary : string -> Stream.t -> unit

val load_binary : string -> Stream.t
(** Raises {!Error} with {!Bad_magic}, {!Truncated} or {!Bad_count};
    every strict prefix of a valid file is rejected, never silently
    shortened. *)
