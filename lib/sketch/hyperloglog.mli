(** HyperLogLog distinct-count summary (Flajolet, Fusy, Gandouet, Meunier).

    [m] one-byte registers; register [j] keeps the maximum geometric level
    (+1) of the items routed to bucket [j]; the harmonic mean of [2^-M_j]
    yields the estimate, with linear-counting correction for small
    cardinalities.  Standard error [~1.04/sqrt m].

    Included as a second drop-in sketch type for the paper's Section 4.2
    observation; its 1-byte registers make shared-sketch protocols (SS/LS)
    markedly cheaper per message than with FM bitmaps, which the sketch-type
    ablation bench quantifies. *)

type family
type t

val name : string

val family :
  rng:Wd_hashing.Rng.t -> accuracy:float -> confidence:float -> family
(** Sizes [m] as the power of two with [1.04/sqrt m <= accuracy], times a
    [ln (1/delta)] boost. *)

val family_custom : rng:Wd_hashing.Rng.t -> registers:int -> family
(** [registers] must be a power of two [>= 16]. *)

val family_of_params : alpha:float -> delta:float -> seed:int -> family
(** {!family} under the paper's parameter names: relative error [alpha],
    failure probability [delta = 1 - confidence], hashes drawn from a
    fresh generator seeded with [seed]. *)


val registers : family -> int

val with_estimator : Sketch_intf.estimator -> family -> family
(** [with_estimator e fam] selects the estimate computation (default
    [Classic]).  State, [add] and [merge_into] are estimator-independent,
    so MLE estimates compose with merging. *)

val estimator : family -> Sketch_intf.estimator

val create : family -> t
val of_params : alpha:float -> delta:float -> seed:int -> t
(** [create (family_of_params ~alpha ~delta ~seed)]. *)

val copy : t -> t

(** [add t v] inserts the item; [true] iff some register increased. *)
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

val alpha : int -> float
(** [alpha m] is the bias-correction constant applied to the raw harmonic
    estimate for [m] registers (Flajolet et al., Fig. 3).  Total: register
    counts below the constructible minimum of 16 clamp to the [m = 16]
    constant 0.673 rather than extrapolating the asymptotic formula, which
    would bias small-[m] estimates. *)

val merge_into : dst:t -> t -> unit

val estimate : t -> float
(** Under [Classic], the bias-corrected harmonic mean with the small
    range blended towards linear counting on the zero-register count
    (continuous crossfade over [raw/m] in [2, 3] rather than a hard
    switch at [2.5m]; raw alone when no register is zero — see
    {!Estimators.linear_blend}).  Under [Mle], the Clifford–Cosma
    maximum-likelihood estimate from the register-value counts
    ({!Estimators.hll}). *)

val size_bytes : t -> int
(** One byte per register. *)

val delta_bytes : from:t -> t -> int
(** 3 bytes per register of the target exceeding [from]'s (a (register,
    value) pair each). *)

val equal : t -> t -> bool
val family_of : t -> family

(** {1 Serialization} — the raw register array, [m] bytes. *)

val to_bytes : t -> bytes

val of_bytes : family -> bytes -> t
(** Raises [Invalid_argument] on a length mismatch or a register value
    above 63. *)
