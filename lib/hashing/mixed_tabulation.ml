let derived_chars = 4

(* All (8 + 8 + derived_chars) tables of 256 words live in one flat
   buffer of native-endian 64-bit words, in the order [create] draws them
   from the generator: the [derived_chars] mix tables, then the 8 derive
   tables, then the 8 value tables.  The draw order defines every hash
   value (it is the order a record of [int64 array array]s, evaluated
   right to left, filled them in), and [test_hashing] pins it.  A lookup
   is one load, not a pointer hop through a boxed word, and the 40 KiB
   buffer is opaque to the GC. *)
type t = Bytes.t

(* Table numbers in the buffer; table [i] holds words [256 i .. 256 i + 255]. *)
let mix_table = 0
let derive_table = derived_chars
let value_table = derived_chars + 8
let words = 256 * (value_table + 8)

(* The unchecked load: every offset below is a masked byte inside its
   own table. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let create rng =
  let b = Bytes.create (8 * words) in
  for w = 0 to words - 1 do
    Bytes.set_int64_ne b (8 * w) (Rng.int64 rng)
  done;
  b

(* Character [i] of a key; [asr] sign-extends, so character 7 of a native
   int is the top byte of its [Int64.of_int]. *)
let[@inline] char x i = (x asr (8 * i)) land 0xFF

let[@inline] lookup t table c = get64 t (8 * ((256 * table) + c))
let[@inline] value t x i = lookup t (value_table + i) (char x i)

(* Only the low 32 bits of the derived word are ever read (as
   [derived_chars] = 4 characters), so it is kept as a native int. *)
let[@inline] derive t x i =
  Int64.to_int (lookup t (derive_table + i) (char x i))
let[@inline] mix t d c = lookup t (mix_table + c) (char d c)

(* 8 simple-tabulation lookups produce the value word and the
   derived-character word, then [derived_chars] further lookups indexed
   by the derived characters are XORed into the value word.  Unrolled by
   hand (as two loops it ran about 1.7x slower: a variable shift per
   character, a safepoint poll per iteration) and [@inline], so [hash]
   and [pcsa] each keep the value word unboxed in a register. *)
let[@inline] word t x =
  let d =
    derive t x 0 lxor derive t x 1 lxor derive t x 2 lxor derive t x 3
    lxor derive t x 4 lxor derive t x 5 lxor derive t x 6 lxor derive t x 7
  in
  let v =
    Int64.logxor
      (Int64.logxor
         (Int64.logxor (value t x 0) (value t x 1))
         (Int64.logxor (value t x 2) (value t x 3)))
      (Int64.logxor
         (Int64.logxor (value t x 4) (value t x 5))
         (Int64.logxor (value t x 6) (value t x 7)))
  in
  Int64.logxor v
    (Int64.logxor
       (Int64.logxor (mix t d 0) (mix t d 1))
       (Int64.logxor (mix t d 2) (mix t d 3)))

let hash t x = word t x

let pcsa t x =
  let h = word t x in
  let low = Int64.to_int h land 0xFFFF_FFFF in
  let level = if low = 0 then 32 else Geometric.trailing_zeros_int low in
  (Int64.to_int (Int64.shift_right_logical h 32) lsl 6) lor level

let concentrated_buckets ~alpha ~delta =
  if alpha <= 0.0 || alpha >= 1.0 then
    invalid_arg "Mixed_tabulation.concentrated_buckets: alpha must be in (0,1)";
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Mixed_tabulation.concentrated_buckets: delta must be in (0,1)";
  let base = (0.78 /. alpha) ** 2.0 in
  let m =
    int_of_float (Float.ceil (base *. Float.max 1.0 (Float.log (1.0 /. delta))))
  in
  max 16 m
