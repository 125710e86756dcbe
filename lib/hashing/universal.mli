(** Keyed 64-bit hash functions.

    A {!t} is one member of a hash family, selected by a seed.  The default
    family is the SplitMix64 finalizer keyed by the seed, which behaves like
    an ideal hash in practice; {!multiply_shift} gives the classical
    2-universal multiply-shift family of Dietzfelbinger et al. when provable
    (rather than empirical) universality is wanted. *)

type t
(** One hash function: a total map from 64-bit keys to 64-bit values. *)

val create : seed:int64 -> t
(** [create ~seed] is the seeded SplitMix64-finalizer hash. *)

val of_rng : Rng.t -> t
(** [of_rng rng] draws a fresh function from [rng]. *)

val multiply_shift : Rng.t -> t
(** [multiply_shift rng] draws a member of the 2-universal multiply-shift
    family: [h(x) = (a*x + b) >>> 0] over 64-bit arithmetic with odd [a]. *)

val hash : t -> int -> int64
(** [hash h x] applies [h] to the (non-negative) integer key [x]. *)

val bits : t -> shift:int -> int -> int
(** [bits h ~shift x] is
    [Int64.to_int (Int64.shift_right_logical (hash h x) shift)], computed
    without allocating: [shift = 0] gives the low 63 bits of the hash,
    [shift >= 1] its top [64 - shift] bits.  The per-item paths of the
    sketches go through this (or {!to_range}) rather than {!hash}, whose
    [int64] result is boxed once it leaves this module. *)

val bits_block :
  t -> shift:int -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** [bits_block h ~shift ~src ~pos ~len ~dst] sets
    [dst.(j) <- bits h ~shift src.(pos + j)] for [0 <= j < len].  The
    seeded family hashes the whole block in {!Splitmix.mix_bits_block},
    so a block costs one call, not one per key.  Raises
    [Invalid_argument] unless [src.(pos .. pos + len - 1)] and
    [dst.(0 .. len - 1)] exist. *)

val to_range : t -> buckets:int -> int -> int
(** [to_range h ~buckets x] maps [x] uniformly onto [\[0, buckets)].
    Requires [buckets > 0]. *)
