(** BJKST / k-minimum-values distinct-count summary.

    Bar-Yossef, Jayram, Kumar, Sivakumar & Trevisan (RANDOM 2002), in the
    k-minimum-values formulation: keep the [k] smallest hash values seen;
    if the k-th smallest normalized hash is [v_k] then [(k - 1) / v_k]
    estimates the distinct count.  Standard error is [~1/sqrt k].

    Mergeable (union of the value sets, re-truncated to the [k] smallest),
    duplicate-resilient (hash values are a function of the item), and
    monotone under merging — everything {!Sketch_intf.DISTINCT_SKETCH}
    requires.  Cited by the paper (Section 4.2) as a drop-in replacement for
    the FM sketch; the bench suite uses it for the sketch-type ablation. *)

type family
type t

val name : string

val family :
  rng:Wd_hashing.Rng.t -> accuracy:float -> confidence:float -> family
(** Sizes [k ~= (1 / accuracy)^2 * ln (1 / (1 - confidence))]. *)

val family_custom : rng:Wd_hashing.Rng.t -> k:int -> family
(** Keep exactly the [k] smallest hash values.  Requires [k >= 1]. *)

val family_of_params : alpha:float -> delta:float -> seed:int -> family
(** {!family} under the paper's parameter names: relative error [alpha],
    failure probability [delta = 1 - confidence], hashes drawn from a
    fresh generator seeded with [seed]. *)


val k : family -> int

val with_estimator : Sketch_intf.estimator -> family -> family
(** [with_estimator e fam] selects the estimate computation (default
    [Classic]: the unbiased [(k-1)/u_k]; [Mle]: the order-statistic
    maximum-likelihood [k/u_k - 1]).  The retained value set, [add] and
    [merge_into] are estimator-independent, so MLE composes with
    merging. *)

val estimator : family -> Sketch_intf.estimator

val create : family -> t
val of_params : alpha:float -> delta:float -> seed:int -> t
(** [create (family_of_params ~alpha ~delta ~seed)]. *)

val copy : t -> t

(** [add t v] inserts the item; [true] iff the retained value set changed. *)
val add : t -> int -> bool

val keys :
  family -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** Copies the items: an item is its own key
    ({!Sketch_intf.DISTINCT_SKETCH.keys}). *)

val add_key : t -> int -> bool
(** {!add}, since an item is its own key. *)

val add_batch : t -> int array -> unit
(** [add_batch t vs] inserts every element of [vs]; equal to folding
    {!add} with the change flags discarded. *)

val merge_into : dst:t -> t -> unit
val estimate : t -> float
val size_bytes : t -> int
(** 8 bytes per stored hash value: [8 * min k (distinct items seen)]. *)

val delta_bytes : from:t -> t -> int
(** 8 bytes per retained hash value of the target missing from [from]. *)

val equal : t -> t -> bool
val family_of : t -> family

(** {1 Serialization} — a 4-byte count followed by the retained hash
    values, 8 bytes each (order-insensitive). *)

val to_bytes : t -> bytes

val of_bytes : family -> bytes -> t
(** Raises [Invalid_argument] on a malformed buffer or more values than
    the family's [k]. *)
