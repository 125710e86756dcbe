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

val levels :
  Universal.t -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** [levels h ~src ~pos ~len ~dst] sets [dst.(j) <- level h src.(pos + j)]
    for [0 <= j < len], one call per block (through
    {!Universal.bits_block}) and nothing called or allocated per item.
    Raises [Invalid_argument] unless [src.(pos .. pos + len - 1)] and
    [dst.(0 .. len - 1)] exist. *)
