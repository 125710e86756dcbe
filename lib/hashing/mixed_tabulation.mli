(** Mixed tabulation hashing (Dahlgaard, Knudsen, Rotenberg & Thorup,
    FOCS 2015), the "highly concentrated" hash family of Aamand,
    Knudsen, Knudsen, Rasmussen & Thorup ("No Repetition: Fast Streaming
    with Highly Concentrated Hashing").

    Simple tabulation ({!Tabulation}) splits the key into 8 characters
    and XORs 8 random table words.  Mixed tabulation additionally
    derives [d] extra characters from a second set of words looked up by
    the same key characters, and XORs [d] more table lookups indexed by
    those derived characters into the output.  The resulting family
    obeys Chernoff-style concentration bounds on the hash-based sums
    that distinct-count sketches compute — strong enough that a single
    sketch meets an (alpha, delta) guarantee where weaker families need
    the median or mean of [Theta(log 1/delta)] independent repetitions.

    That is the load-bearing property here: {!Wd_sketch.Fm_concentrated}
    hashes each item exactly once through this family, against the
    [Averaged] FM variant's m independent hashes per item. *)

type t

val derived_chars : int
(** Number of derived characters [d] (4: the C/D recommendation from the
    mixed-tabulation literature for 64-bit keys and 8-bit characters). *)

val create : Rng.t -> t
(** [create rng] fills the (8 + 8 + {!derived_chars}) × 256 tables of
    64-bit words from [rng]: 40 KiB of state in one flat buffer. *)

val hash : t -> int -> int64
(** [hash h x] hashes the integer key [x] (as [Int64.of_int x]): 8
    simple-tabulation lookups producing the value word and the
    derived-character word, then {!derived_chars} further lookups XORed
    into the value word. *)

val pcsa : t -> int -> int
(** [pcsa h x] is the PCSA split of [hash h x], packed into one native
    int as [(high lsl 6) lor level]: [high] is the hash's top 32 bits and
    [level] the number of trailing zeros of its low 32 bits (32 when they
    are all zero).  A sketch with [m] buckets reads bucket
    [(p lsr 6) mod m] and level [p land 63].  Unlike {!hash}, whose
    [int64] result is boxed (3 words) once it leaves this module, [pcsa]
    allocates nothing. *)

val pcsa_block :
  t -> src:int array -> pos:int -> len:int -> dst:int array -> unit
(** [pcsa_block h ~src ~pos ~len ~dst] sets [dst.(j) <- pcsa h src.(pos + j)]
    for [0 <= j < len]: a block of keys hashed in one call, with the
    kernel inlined into the loop, so nothing is called or allocated per
    key.  Each result depends only on [h] and its key.  Raises
    [Invalid_argument] unless [src.(pos .. pos + len - 1)] and
    [dst.(0 .. len - 1)] exist. *)

val concentrated_buckets : alpha:float -> delta:float -> int
(** The single-repetition sizing rule.  With a concentrated hash the
    relative error of a one-pass PCSA-style sketch with [m] buckets obeys
    an exponential tail [P(|err| > alpha) <= exp(-c * m * alpha^2)], so
    one sketch with

    {[ m = ceil ((0.78 / alpha)^2 * max 1 (ln (1 / delta))) ]}

    buckets meets the (alpha, delta) guarantee — the [ln (1/delta)]
    factor buys confidence by widening the single sketch instead of
    multiplying whole independent repetitions, and the asymptotic PCSA
    constant 0.78 replaces the conservative 1.0 that {!Wd_sketch.Fm}
    must use to cover weak-hash worst cases.  At equal (alpha, delta)
    the result is ~40% fewer buckets than [Fm.family], which is exactly
    the serialized-bytes saving the SS/LS broadcast protocols inherit.
    Requires [alpha, delta] in (0,1); the result is always >= 16. *)
