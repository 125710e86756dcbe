(** SplitMix64: a fast, high-quality 64-bit mixing function and sequential
    pseudo-random generator (Steele, Lea & Flood, OOPSLA 2014).

    Two distinct uses in this library:

    - {!mix} is a stateless bijective finalizer used to build hash functions
      over 64-bit keys.  It passes avalanche tests and is the standard way to
      approximate the "ideal" hash functions assumed by the Flajolet–Martin
      analysis.
    - {!t} is a tiny splittable PRNG used to seed the other generators and
      hash families deterministically. *)

(** {1 Stateless mixing} *)

val mix : int64 -> int64
(** [mix x] is the SplitMix64 finalizer of [x]: a fixed bijection on 64-bit
    words with full avalanche (each input bit flips each output bit with
    probability close to 1/2). *)

val mix_seeded : seed:int64 -> int64 -> int64
(** [mix_seeded ~seed x] mixes [x] after combining it with [seed], giving a
    cheap keyed hash family indexed by [seed].  Distinct seeds give
    (empirically) independent hash functions. *)

val mix_bits : premixed:int64 -> shift:int -> int -> int
(** [mix_bits ~premixed ~shift x] is
    [Int64.to_int (Int64.shift_right_logical (mix (Int64.add premixed
    (Int64.of_int x))) shift)]: the keyed finalizer of the native key [x]
    cut to a native-int window, computed without allocating.  [shift = 0]
    keeps the low 63 bits; [shift >= 1] keeps the top [64 - shift] bits.
    This is {!Universal}'s seeded family on its per-item paths: an [int64]
    crossing a module boundary is boxed (3 words), a native int is not. *)

val mix_bits_block :
  premixed:int64 ->
  shift:int ->
  src:int array ->
  pos:int ->
  len:int ->
  dst:int array ->
  unit
(** [mix_bits_block ~premixed ~shift ~src ~pos ~len ~dst] sets
    [dst.(j) <- mix_bits ~premixed ~shift src.(pos + j)] for
    [0 <= j < len]: a block of keys hashed in one call, with nothing
    called or allocated per key.  Raises [Invalid_argument] unless
    [src.(pos .. pos + len - 1)] and [dst.(0 .. len - 1)] exist. *)

(** {1 Sequential generator} *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] is a fresh generator.  Equal seeds yield equal streams. *)

val next : t -> int64
(** [next g] advances [g] and returns the next 64-bit output. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    independent of the remainder of [g]'s stream. *)

val state : t -> int64
(** [state g] is the raw internal state word, for checkpointing. *)

val of_state : int64 -> t
(** [of_state s] is a generator whose internal state is exactly [s];
    inverse of {!state}. *)
