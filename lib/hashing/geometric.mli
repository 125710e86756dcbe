(** Geometric level hash.

    Both the Flajolet–Martin sketch and the Gibbons–Tirthapura distinct
    sampler need a hash [h] such that [Pr[h(v) = i] = 2^-(i+1)] (equivalently
    [Pr[h(v) >= l] = 2^-l]).  The standard construction is to hash [v] to a
    uniform 64-bit word and take the number of trailing zero bits; this module
    packages that construction over a {!Universal.t}. *)

val trailing_zeros : int64 -> int
(** [trailing_zeros w] is the number of trailing zero bits of [w];
    [trailing_zeros 0L = 64]. *)

val trailing_zeros_int : int -> int
(** [trailing_zeros_int w] is the number of trailing zero bits of the
    native 63-bit word [w]; [trailing_zeros_int 0 = 63].  Allocation-free
    (no [Int64] boxing), which is why the sketch update paths prefer it. *)

val level : Universal.t -> int -> int
(** [level h v] is the geometric level of item [v] under hash [h]:
    the count of trailing zeros of the hashed word, capped at 63.
    [Pr[level h v >= l] = 2^-l] for [l <= 63] over the choice of [h].
    Allocation-free (through {!Universal.bits}). *)

val below_mask : int -> int
(** [below_mask l] is the mask of the low [l] bits, for [l >= 0]:
    [(1 lsl l) - 1] for [l <= 62] and [-1] (all 63 bits) for
    [l >= 63].  For [w = Universal.bits h ~shift:0 v], whose level
    [level h v] is [trailing_zeros_int w] (63 for [0]),
    [level h v < l] iff [w land below_mask l <> 0], exactly for
    [0 <= l <= 63].  Above 63 the test is one-sided: at [l >= 64] it
    calls every nonzero word below [l] and [0] (level 63) not below, so
    it never calls an item below a level that it reaches. *)
