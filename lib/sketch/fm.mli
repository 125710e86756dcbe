(** Multi-bitmap Flajolet–Martin distinct-count sketch.

    The paper's primary sketch (Section 3.2): to reduce the variance of one
    {!Fm_bitmap}, keep [m] of them and average.  Two classical variants are
    provided:

    - [Averaged] — the variant described in the paper's Section 3.2: every
      item is inserted into all [m] bitmaps under [m] independent hash
      functions, and the estimate is [2^(mean z) / phi].  O(m) per update.
    - [Stochastic] — Flajolet–Martin's own "stochastic averaging" (PCSA):
      one hash splits items across the [m] bitmaps and a second provides
      the level, so each update touches exactly one bitmap.  The estimate is
      [m * 2^(mean z) / phi].  O(1) per update, same asymptotic accuracy.

    The default family uses [Stochastic]; the benchmark suite contains an
    ablation comparing the two.  Both variants merge by bitwise OR and give
    estimates that are monotone under merging, which the tracking protocols
    rely on. *)

type variant = Averaged | Stochastic

type family
type t

val name : string

val family :
  rng:Wd_hashing.Rng.t -> accuracy:float -> confidence:float -> family
(** Sizes [m ~= (0.78 / accuracy)^2 * ln (1 / (1 - confidence))] bitmaps,
    [Stochastic] variant.  See {!family_custom} for explicit control. *)

val family_custom :
  rng:Wd_hashing.Rng.t -> variant:variant -> bitmaps:int -> family
(** [family_custom ~rng ~variant ~bitmaps] uses exactly [bitmaps] bitmaps
    with the given update discipline.  Requires [bitmaps >= 1]. *)

val family_of_params : alpha:float -> delta:float -> seed:int -> family
(** {!family} under the paper's parameter names: relative error [alpha],
    failure probability [delta = 1 - confidence], hashes drawn from a
    fresh generator seeded with [seed]. *)

val bitmaps : family -> int
(** Number of bitmaps [m] in the family. *)

val variant : family -> variant

val with_estimator : Sketch_intf.estimator -> family -> family
(** [with_estimator e fam] is [fam] with its estimate computed by [e]
    (families default to [Classic]).  Summary state, [add] and
    [merge_into] are unchanged, so the MLE is merge-compatible: the
    estimate of a merged sketch is the MLE of the merged state. *)

val estimator : family -> Sketch_intf.estimator

val create : family -> t

val of_params : alpha:float -> delta:float -> seed:int -> t
(** [create (family_of_params ~alpha ~delta ~seed)]. *)

val copy : t -> t

(** [add t v] inserts the item; [true] iff some bitmap bit was newly set. *)
val add : t -> int -> bool

val keys :
  family -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** Copies the items: an item is its own key
    ({!Sketch_intf.DISTINCT_SKETCH.keys}). *)

val add_key : t -> int -> bool
(** {!add}, since an item is its own key. *)

val add_batch : t -> int array -> unit
(** [add_batch t vs] inserts every element of [vs]; equal to folding
    {!add} with the change flags discarded, with the variant dispatch and
    hash loads hoisted out of the loop. *)

val merge_into : dst:t -> t -> unit

val estimate : t -> float
(** Under [Classic], the bias-corrected mean [2^(mean z) / phi] (times
    [m] for [Stochastic]).  The [Stochastic] small range blends towards
    linear counting on the empty-bitmap count: linear counting below
    [raw = 2m], raw above [raw = 3m], a continuous crossfade between —
    never a hard switch, so the estimate cannot step across a protocol
    threshold by changing regime (see {!Estimators.linear_blend}).

    When {e no} bitmap is empty the linear-counting correction is
    skipped and the raw estimate is returned {e even if} [raw < 2.5m].
    This corner is reachable — a bitmap whose only set bits lie above
    bit 0 has lowest zero 0, so all [m] bitmaps can be non-empty while
    [raw] is as small as [m / phi] — and with [empty = 0] linear
    counting has no observation to invert ([log (m / 0)]), so raw is
    the only defined estimate.  The behavior is deliberate and
    regression-tested, not an accident of guard ordering.

    Under [Mle], the Clifford–Cosma maximum-likelihood estimate from
    the per-bitmap lowest-zero counts ({!Estimators.fm}); no crossover
    exists because the likelihood already models the small range. *)

val size_bytes : t -> int
(** [8 * m] bytes: the bitmaps are the wire payload. *)

val delta_bytes : from:t -> t -> int
(** 4 bytes per bit of the target not present in [from] (a (bitmap,
    level) coordinate each). *)

val equal : t -> t -> bool
val is_empty : t -> bool

val family_of : t -> family
(** The family a sketch was created from. *)

(** {1 Serialization}

    The wire format is the raw little-endian bitmaps, [8 * m] bytes —
    exactly the {!size_bytes} the protocols charge for a sketch payload.
    Hash functions are family state and are shared out of band (all
    parties of a protocol hold the same family). *)

val to_bytes : t -> bytes

val of_bytes : family -> bytes -> t
(** Raises [Invalid_argument] if the buffer length does not match the
    family's [8 * m] bytes. *)
