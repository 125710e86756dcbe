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

let words = 256 * (derived_chars + 8 + 8)

(* The unchecked load: every offset below is a masked byte inside its
   own table. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let create rng =
  let b = Bytes.create (8 * words) in
  for w = 0 to words - 1 do
    Bytes.set_int64_ne b (8 * w) (Rng.int64 rng)
  done;
  b

(* [at t base s] is the word at byte [base + (s land 0x7F8)].  Table [i]
   starts at byte [2048 i] (mix tables 0-3, derive 4-11, value 12-19),
   and [s] is a word shifted so that one character sits in bits 3..10:
   masked, it is that character's byte offset inside its table.  Every
   call passes [base] as a literal byte offset, which the compiler folds
   into the index arithmetic: a lookup is shift, mask, [lea], [sar] (the
   untag), load.  Named table numbers are not folded, even through
   [@inline] helpers, and cost twice the instructions. *)
let[@inline] at t base s =
  get64 t (base + Int64.to_int (Int64.logand s 0x7F8L))

(* 8 simple-tabulation lookups, by the key's characters, produce the
   value word [v] and the derived-character word [d]; then
   [derived_chars] further lookups, by the low characters of [d], are
   XORed into [v].  Character [i] of a key is byte [i] of its
   [Int64.of_int], so character 7 is the sign-extended top byte.
   Unrolled by hand (as two loops it ran about 1.7x slower: a variable
   shift per character, a safepoint poll per iteration).  The XORs run
   as one chain with [v] and [d] interleaved, which keeps few words
   live: with [@inline], [hash], [pcsa] and [pcsa_block] keep the whole
   kernel in registers. *)
let[@inline] word t x =
  let k = Int64.of_int x in
  let v = at t 24576 (Int64.shift_left k 3) in
  let d = at t 8192 (Int64.shift_left k 3) in
  let v = Int64.logxor v (at t 26624 (Int64.shift_right_logical k 5)) in
  let d = Int64.logxor d (at t 10240 (Int64.shift_right_logical k 5)) in
  let v = Int64.logxor v (at t 28672 (Int64.shift_right_logical k 13)) in
  let d = Int64.logxor d (at t 12288 (Int64.shift_right_logical k 13)) in
  let v = Int64.logxor v (at t 30720 (Int64.shift_right_logical k 21)) in
  let d = Int64.logxor d (at t 14336 (Int64.shift_right_logical k 21)) in
  let v = Int64.logxor v (at t 32768 (Int64.shift_right_logical k 29)) in
  let d = Int64.logxor d (at t 16384 (Int64.shift_right_logical k 29)) in
  let v = Int64.logxor v (at t 34816 (Int64.shift_right_logical k 37)) in
  let d = Int64.logxor d (at t 18432 (Int64.shift_right_logical k 37)) in
  let v = Int64.logxor v (at t 36864 (Int64.shift_right_logical k 45)) in
  let d = Int64.logxor d (at t 20480 (Int64.shift_right_logical k 45)) in
  let v = Int64.logxor v (at t 38912 (Int64.shift_right_logical k 53)) in
  let d = Int64.logxor d (at t 22528 (Int64.shift_right_logical k 53)) in
  let v = Int64.logxor v (at t 0 (Int64.shift_left d 3)) in
  let v = Int64.logxor v (at t 2048 (Int64.shift_right_logical d 5)) in
  let v = Int64.logxor v (at t 4096 (Int64.shift_right_logical d 13)) in
  Int64.logxor v (at t 6144 (Int64.shift_right_logical d 21))

let hash t x = word t x

(* The trailing-zero count of {!Geometric.trailing_zeros_int}, by de
   Bruijn multiplication, repeated here because under -opaque that is a
   call per item. *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(* The PCSA split of a hash word: its top 32 bits [lsl 6], [lor] the
   trailing zeros of its low 32 bits (32 when they are all zero). *)
let[@inline] split h =
  let low = Int64.to_int h land 0xFFFF_FFFF in
  let level =
    if low = 0 then 32
    else
      Array.unsafe_get debruijn32
        ((((low land -low) * 0x077C_B531) land 0xFFFF_FFFF) lsr 27)
  in
  (Int64.to_int (Int64.shift_right_logical h 32) lsl 6) lor level

let pcsa t x = split (word t x)

(* The loop, apart from the slice check: with no call in it, the
   buffer, both arrays and the bounds stay in registers. *)
let[@inline never] pcsa_fill t src pos len dst =
  for j = 0 to len - 1 do
    Array.unsafe_set dst j (split (word t (Array.unsafe_get src (pos + j))))
  done

let pcsa_block t ~src ~pos ~len ~dst =
  if
    pos < 0 || len < 0
    || pos + len > Array.length src
    || len > Array.length dst
  then invalid_arg "Mixed_tabulation.pcsa_block: slice out of range";
  pcsa_fill t src pos len dst

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
