(** Common signature of mergeable distinct-counting summaries.

    Section 4.2 of the paper observes that the distinct-count tracking
    protocols need nothing from the Flajolet–Martin structure beyond
    "adding new items, merging two sketches and outputting the approximate
    number of distinct items"; any such structure can be substituted.  The
    tracker ({!Wd_protocol.Dc_tracker.Make}) is therefore a functor over this
    signature, and {!Fm}, {!Bjkst} and {!Hyperloglog} all implement it.

    A {e family} fixes the hash functions and the dimensioning of the
    summary.  Sketches are mergeable only within one family: every site and
    the coordinator of a tracking protocol share a single family, mirroring
    the shared public hash functions of the paper's model. *)

type estimator = Classic | Mle
(** How a family turns summary state into a distinct-count estimate.

    [Classic] is each sketch's textbook bias-corrected estimator (with
    the blended linear-counting crossover of {!Estimators.linear_blend}
    in the small range).  [Mle] is the Clifford–Cosma maximum-likelihood
    estimator over the same state ({!Estimators}): strictly tighter in
    the observed-information sense, hence fewer spurious threshold
    crossings in the tracking protocols.

    The estimator is {e family} state, set with each sketch module's
    [with_estimator]: the summary representation, [add] and [merge_into]
    are identical under both, so sketches from [with_estimator Mle fam]
    merge exactly like their [Classic] siblings and the estimate of a
    merged sketch is the estimator applied to the merged state — MLE is
    merge-compatible by construction, which the protocols rely on
    (state merges first, estimation happens at the coordinator). *)

(* The [keys] of a sketch whose key is the item itself.  A loop over
   [int array]s stores without a write barrier; [Array.blit] is a C call
   per block. *)
let copy_keys ~(src : int array) ~pos ~len ~(dst : int array) =
  if
    pos < 0 || len < 0
    || pos + len > Array.length src
    || len > Array.length dst
  then invalid_arg "Sketch_intf.copy_keys: slice out of range";
  for j = 0 to len - 1 do
    Array.unsafe_set dst j (Array.unsafe_get src (pos + j))
  done

module type DISTINCT_SKETCH = sig
  type family
  (** Shared hash functions and dimensioning. *)

  type t
  (** A mutable summary of a set of items. *)

  val name : string
  (** Short human-readable name ("fm", "bjkst", "hll"). *)

  val family : rng:Wd_hashing.Rng.t -> accuracy:float -> confidence:float ->
    family
  (** [family ~rng ~accuracy ~confidence] draws hash functions from [rng]
      and sizes the summary so that [estimate] is within a [1 +/- accuracy]
      factor of the true distinct count with probability at least
      [confidence].  Requires [0 < accuracy < 1] and [0 < confidence < 1]. *)

  val family_of_params : alpha:float -> delta:float -> seed:int -> family
  (** {!family} under the paper's parameter names: relative error
      [alpha], failure probability [delta = 1 - confidence], hash
      functions drawn from a fresh generator seeded with [seed].
      Requires [0 < alpha < 1] and [0 < delta < 1]. *)

  val create : family -> t
  (** [create fam] is an empty summary of the family [fam]. *)

  val of_params : alpha:float -> delta:float -> seed:int -> t
  (** [create (family_of_params ~alpha ~delta ~seed)]: the uniform
      one-call constructor every sketch module provides. *)

  val copy : t -> t
  (** Deep copy; subsequent mutations of either side are independent. *)

  val add : t -> int -> bool
  (** [add t v] inserts item [v] and reports whether the summary changed.
      Duplicate insertions are no-ops on the summarized set (this is the
      duplicate-resilience the paper builds on) and always return [false];
      a [false] result lets callers skip estimate recomputation and, in the
      tracking protocols, skip threshold checks that cannot fire. *)

  val add_batch : t -> int array -> unit
  (** [add_batch t vs] inserts every element of [vs] in order.
      Observationally equal to folding {!add} over [vs] with the change
      flags discarded, but with hash state and bounds checks hoisted out
      of the per-item loop — the preferred entry point when a caller
      already holds a chunk of arrivals (the batched simulator, bulk
      loaders, benchmarks). *)

  val keys :
    family -> src:int array -> pos:int -> len:int -> dst:int array -> unit
  (** [keys fam ~src ~pos ~len ~dst] sets [dst.(j)] to the key of item
      [src.(pos + j)] for [0 <= j < len]: whatever {!add} computes from
      the item before it touches the summary, so that
      [add t v = add_key t k] when [k] is [v]'s key.  A key depends only
      on the family and the item, never on summary state, so a block of
      keys stays valid whatever happens to the summaries it is added to
      in between (a crash wiping a site's sketch, a merge from the
      coordinator).  {!Fm_concentrated}'s key is the item's hash, computed
      a block at a time; the other sketches' key is the item itself.
      Raises [Invalid_argument] unless [src.(pos .. pos + len - 1)] and
      [dst.(0 .. len - 1)] exist. *)

  val add_key : t -> int -> bool
  (** [add_key t k] finishes the {!add} of the item whose key is [k]
      (see {!keys}) and reports whether the summary changed. *)

  val merge_into : dst:t -> t -> unit
  (** [merge_into ~dst src] makes [dst] summarize the union of both input
      sets.  Requires both sketches to belong to the same family. *)

  val estimate : t -> float
  (** Approximate number of distinct items inserted (union semantics). *)

  val size_bytes : t -> int
  (** Wire size of the summary in bytes, as counted by the paper's
      byte-for-byte communication accounting. *)

  val delta_bytes : from:t -> t -> int
  (** [delta_bytes ~from target] is the wire size of the information in
      [target] that is missing from [from] — the cost of bringing a
      receiver that holds [from] up to [target] by shipping only the
      difference (Section 4.2 mentions this delta encoding between
      subsequent sketches).  Zero when [target] adds nothing.  Both
      summaries must belong to the same family, and [from] must be
      dominated by (mergeable into) the receiver's true state for the
      delta to be lossless — which holds whenever [from] is a snapshot
      the receiver is known to have reached. *)

  val equal : t -> t -> bool
  (** Structural equality of summary contents (same family assumed).  Used
      by trackers to skip sending a sketch that cannot change the
      coordinator's state. *)
end
