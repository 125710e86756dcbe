(** The registry's shared-plane distinct sketch: mixed-tabulation PCSA
    with hash memoization and arena-allocated registers.

    Semantically this is {!Wd_sketch.Fm_concentrated} — one strong hash
    per item supplies the bucket (high 32 bits mod [m]) and the level
    (trailing zeros of the low 32 bits, capped at 32), estimates blend
    linear counting into the bias-corrected PCSA mean, and the MLE
    estimator rides on the same state.  Two representation changes make
    it the fan-out substrate for thousands of concurrent views:

    - {b One hash per item per plane.}  Every family built on the same
      {!plane} shares one mixed-tabulation hash, and the plane memoizes
      the last item with its {!Wd_hashing.Mixed_tabulation.pcsa} word.
      When a registry fans an item out to [N] subscribed views in
      sequence, the first [add] pays the full hash and the remaining
      [N - 1] hit the memo — the marginal cost of another view is a
      register check, not a rehash.
    - {b Arena registers.}  Each sketch's [m] registers are one native
      int apiece (levels cap at 32, so a register is a 33-bit bitmap) in
      the plane's {!Arena} — no per-sketch heap array, nothing for the
      GC to scan.

    Sketches are mergeable only within one family, and families are
    comparable only on one plane.  The memo makes a plane single-writer:
    do not interleave adds on one plane from multiple domains. *)

type plane
(** One shared hash + memo + register arena. *)

val plane : ?capacity:int -> rng:Wd_hashing.Rng.t -> unit -> plane
(** [plane ~rng ()] draws the mixed-tabulation hash from [rng] and
    reserves [capacity] arena words (default 1024; the arena grows by
    doubling past it). *)

val plane_words : plane -> int
(** Register words allocated on the plane so far (across every family
    and sketch). *)

type family
type t

val name : string
(** ["fanout"]. *)

val family :
  rng:Wd_hashing.Rng.t -> accuracy:float -> confidence:float -> family
(** A self-contained family on a fresh private plane — the
    {!Wd_sketch.Sketch_intf.DISTINCT_SKETCH} constructor, for standalone
    use.  Sizing matches {!Wd_sketch.Fm_concentrated.family}. *)

val family_on : plane:plane -> accuracy:float -> confidence:float -> family
(** A family sharing [plane]'s hash, memo and arena — the registry's
    constructor.  Families on one plane may differ in [accuracy] (bucket
    count); they still hash items identically, so the memo serves all of
    them. *)

val family_custom : plane:plane -> buckets:int -> family
(** Explicit bucket count.  Requires [buckets >= 1]. *)

val family_of_params : alpha:float -> delta:float -> seed:int -> family
val create : family -> t
val of_params : alpha:float -> delta:float -> seed:int -> t

val with_estimator : Wd_sketch.Sketch_intf.estimator -> family -> family
val estimator : family -> Wd_sketch.Sketch_intf.estimator
val buckets : family -> int
val plane_of : family -> plane
val family_of : t -> family

val copy : t -> t
val add : t -> int -> bool

val keys :
  family -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** Copies the items: an item is its own key
    ({!Wd_sketch.Sketch_intf.DISTINCT_SKETCH.keys}). *)

val add_key : t -> int -> bool
(** {!add}, since an item is its own key. *)

val add_batch : t -> int array -> unit
val merge_into : dst:t -> t -> unit
val estimate : t -> float
val size_bytes : t -> int
val delta_bytes : from:t -> t -> int
val equal : t -> t -> bool
val is_empty : t -> bool
