(** Single-repetition FM sketch over concentrated (mixed tabulation)
    hashing — "No Repetition: Fast Streaming with Highly Concentrated
    Hashing" (Aamand, Knudsen, Knudsen, Rasmussen & Thorup) applied to
    the paper's primary sketch.

    {!Fm}'s [Averaged] variant pays m independent hash evaluations and m
    bitmap updates per item to buy its (alpha, delta) guarantee from
    weak hash functions.  Here one {!Wd_hashing.Mixed_tabulation} hash
    per item supplies both the bucket and the level (the PCSA split),
    and the family's Chernoff-style concentration makes a single sketch
    of [Mixed_tabulation.concentrated_buckets ~alpha ~delta] buckets
    meet the same guarantee — O(1) hashing per update with no averaging
    loop, and ~40% fewer serialized bytes than [Fm.family] at equal
    parameters, which the SS/LS broadcast protocols inherit directly.

    Implements {!Sketch_intf.DISTINCT_SKETCH}; merging is bitwise OR per
    bucket, duplicate-insensitive and monotone, exactly as in {!Fm}. *)

type family
type t

val name : string

val family :
  rng:Wd_hashing.Rng.t -> accuracy:float -> confidence:float -> family
(** Sizes the sketch with
    {!Wd_hashing.Mixed_tabulation.concentrated_buckets}: one repetition,
    [ceil ((0.78/accuracy)^2 * max 1 (ln (1/(1-confidence))))] buckets. *)

val family_custom : rng:Wd_hashing.Rng.t -> buckets:int -> family
(** [family_custom ~rng ~buckets] uses exactly [buckets] FM bitmaps.
    Requires [buckets >= 1]. *)

val family_of_params : alpha:float -> delta:float -> seed:int -> family
(** {!family} under the paper's parameter names. *)

val buckets : family -> int

val with_estimator : Sketch_intf.estimator -> family -> family
(** Selects [Classic] (default) or [Mle] estimation; summary state and
    merging are estimator-independent (see {!Fm.with_estimator}). *)

val estimator : family -> Sketch_intf.estimator

val create : family -> t
val of_params : alpha:float -> delta:float -> seed:int -> t
val copy : t -> t

val add : t -> int -> bool
(** One mixed-tabulation hash: bucket from the high bits, level from the
    trailing zeros of the low bits.  [true] iff a bit was newly set. *)

val keys :
  family -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** An item's key is its {!Wd_hashing.Mixed_tabulation.pcsa} word, so
    this is {!Wd_hashing.Mixed_tabulation.pcsa_block} over the family's
    hash: a block of items hashed in one call.  Keys depend only on the
    family and the item (see {!Sketch_intf.DISTINCT_SKETCH.keys}). *)

val add_key : t -> int -> bool
(** [add_key t p] sets level [p land 63] of bucket [(p lsr 6) mod m]:
    the bitmap test of {!add} without the hash, so
    [add t v = add_key t (Mixed_tabulation.pcsa h v)]. *)

val add_batch : t -> int array -> unit
(** Folding {!add} with the hash tables hoisted out of the loop — the
    row the bench gate compares against the committed [Averaged] FM
    baseline. *)

val merge_into : dst:t -> t -> unit

val estimate : t -> float
(** [Classic]: the PCSA stochastic-averaging estimate with the blended
    linear-counting crossover of {!Estimators.linear_blend} (same
    small-range policy as {!Fm.estimate}, including the empty = 0 raw
    fallback).  [Mle]: the Clifford–Cosma maximum-likelihood estimate
    ({!Estimators.fm}). *)

val size_bytes : t -> int
(** [8 * buckets] bytes. *)

val delta_bytes : from:t -> t -> int
(** 4 bytes per bit of the target not present in [from]. *)

val equal : t -> t -> bool
val is_empty : t -> bool
val family_of : t -> family

(** {1 Serialization} — raw little-endian bitmaps, [8 * buckets] bytes,
    as in {!Fm}. *)

val to_bytes : t -> bytes

val of_bytes : family -> bytes -> t
(** Raises [Invalid_argument] if the buffer length does not match the
    family. *)
