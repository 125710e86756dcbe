(** A single Flajolet–Martin bitmap (FOCS 1983).

    A 64-bit bitmap where bit [i] is set iff some inserted item hashed to
    geometric level [i] (probability [2^-(i+1)]).  The index [z] of the
    lowest unset bit estimates [log2 (phi * n)] where [n] is the number of
    distinct items and [phi ~= 0.77351] is the FM correction constant.

    One bitmap has large variance; {!Fm} combines many of them.  This module
    is the building block and is also used directly by the distinct
    heavy-hitter structure, which stores arrays of small FM sketches. *)

type t
(** One mutable 64-bit bitmap. *)

val phi : float
(** The Flajolet–Martin correction constant, 0.77351. *)

val create : unit -> t
(** An empty bitmap (all zero). *)

val copy : t -> t

val add_level : t -> int -> bool
(** [add_level t lvl] sets bit [lvl] and reports whether it was previously
    unset.  [lvl] must be in [\[0, 63\]]. *)

val lowest_zero : t -> int
(** Index of the least significant zero bit ([0] when empty, [64] when
    saturated). *)

val estimate : t -> float
(** [2^(lowest_zero t) / phi]: the single-bitmap distinct estimate. *)

val merge_into : dst:t -> t -> unit
(** Bitwise OR: the merged bitmap summarizes the union of the item sets. *)

val missing : from:t -> t -> int
(** [missing ~from t] counts the bits set in [t] but not in [from]: the
    levels a delta from [from] to [t] must ship.  Reads the native halves,
    so unlike a popcount over {!bits} it allocates nothing. *)

val equal : t -> t -> bool

val is_empty : t -> bool

val bits : t -> int64
(** Raw bitmap contents (for serialization and tests). *)

val of_bits : int64 -> t

val size_bytes : int
(** Wire size: 8 bytes. *)
