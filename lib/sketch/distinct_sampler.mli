(** Gibbons–Tirthapura distinct sampling (VLDB 2001 / SPAA 2001).

    Maintains a uniform sample of the {e distinct} items of a stream,
    together with the exact number of occurrences of each sampled item
    (Section 3.3 of the paper).  A geometric hash assigns each item a level;
    the sampler retains every item whose level is at least the current
    sampling level [l], with its count.  When more than [threshold] items
    are retained, [l] is incremented and items below the new level are
    discarded — each increment halves the expected retained fraction [2^-l].

    Because the retained set is a deterministic function of the item set and
    the hash, two samplers of the same family can be merged into exactly the
    sampler a single site would have produced (the property the distributed
    protocols simulate at the coordinator).

    [|sample| * 2^l] is an unbiased estimate of the distinct count, and the
    sample supports the inverse-distribution queries of Section 6. *)

type family
(** Shared hash function and threshold [T]. *)

type t

val family : rng:Wd_hashing.Rng.t -> threshold:int -> family
(** [family ~rng ~threshold] draws the level hash.  Requires
    [threshold >= 1]. *)

val family_of_params : alpha:float -> delta:float -> seed:int -> family
(** Chooses [threshold = ceil ((1/alpha)^2 * ln (1/delta))] per the
    paper's [T = Omega(1/alpha^2 log 1/delta)], with the level hash
    drawn from a fresh generator seeded with [seed]. *)

val threshold : family -> int

val create : family -> t

val of_params : alpha:float -> delta:float -> seed:int -> t
(** [create (family_of_params ~alpha ~delta ~seed)]. *)

val copy : t -> t

val level : t -> int
(** Current sampling level [l]; an item is retained iff its geometric hash
    level is [>= l]. *)

val item_level : t -> int -> int
(** [item_level t v] is the geometric level of [v] under the family hash
    (independent of the sampler state). *)

val level_bits :
  t -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** [level_bits t ~src ~pos ~len ~dst] sets [dst.(j)] to the raw level
    bits of [src.(pos + j)] (the low 63 bits of the family hash, whose
    trailing-zero count is {!item_level}) for [0 <= j < len]: a block of
    items hashed in one call ({!Wd_hashing.Universal.bits_block}), with
    nothing called or allocated per item.  Test them against a level
    with {!below_mask}.  Raises [Invalid_argument] unless
    [src.(pos .. pos + len - 1)] and [dst.(0 .. len - 1)] exist. *)

val below_mask : int -> int
(** [below_mask l] is {!Wd_hashing.Geometric.below_mask}: for bits [w] of
    item [v] from {!level_bits}, [w land below_mask l <> 0] iff
    [item_level t v < l], exactly for [0 <= l <= 63].  At [l >= 64] it
    errs one way only: an item with bits [0] reads as not below. *)

val add : t -> int -> unit
(** [add t v] processes one arrival of [v]: retained items get their count
    incremented; over-threshold states trigger level increments. *)

val add_count : t -> int -> int -> unit
(** [add_count t v c] processes [c] arrivals at once.  [c >= 0]. *)

val add_batch : t -> int array -> unit
(** [add_batch t vs] processes one arrival of every element of [vs], in
    order; equal to folding {!add} with per-item overhead hoisted. *)

val delete : t -> int -> unit
(** [delete t v] processes one deletion of [v] (the paper's Section 8
    notes the extension to deletions).  Because the retained set is a
    deterministic function of the {e current} item multiset and the hash,
    removing the last copy of a retained item keeps the sample a uniform
    sample of the remaining distinct items.  The level [l] never
    decreases, so heavy deletion shrinks the sample below [threshold]
    and widens the estimate's variance rather than biasing it.

    Deleting an item that is not retained is a silent no-op when the
    item's level is below [l] (its copies were never tracked at this
    level); deleting a retained item below count zero raises
    [Invalid_argument] — deletions must not outnumber insertions. *)

val delete_count : t -> int -> int -> unit
(** [delete_count t v c] processes [c] deletions at once.  [c >= 0]. *)

val set_level : t -> int -> unit
(** [set_level t l] raises the sampling level to [l] (no-op if already
    [>= l]), discarding retained items below it.  Used by remote sites when
    the coordinator broadcasts a new level. *)

val mem : t -> int -> bool
(** Whether [v] is currently retained. *)

val count : t -> int -> int
(** Retained count of [v] ([0] if not retained). *)

val size : t -> int
(** Number of retained items; always [<= threshold]. *)

val contents : t -> (int * int) list
(** Retained [(item, count)] pairs, unordered. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] applies [f item count] to each retained pair. *)

val estimate_distinct : t -> float
(** [size * 2^level]: unbiased distinct-count estimate. *)

val merge_into : dst:t -> t -> unit
(** Union-merge (Section 3.3): levels are reconciled to the maximum, counts
    of common items are summed, and threshold overflow triggers further
    level increments.  The result is identical to processing both input
    streams through a single sampler. *)

val size_bytes : t -> int
(** Wire size: 16 bytes per retained pair (item + count). *)

(** {1 Serialization} — 1-byte level, 4-byte pair count, then 16-byte
    (item, count) pairs; order-insensitive. *)

val to_bytes : t -> bytes

val of_bytes : family -> bytes -> t
(** Raises [Invalid_argument] on a malformed buffer, a pair that the
    level rule would not retain, or a non-positive count. *)
