(* The [int64] count is off the update paths: a byte-stepped loop is fast
   enough and obviously correct. *)
let trailing_zeros w =
  if w = 0L then 64
  else begin
    let w = ref w and n = ref 0 in
    while Int64.logand !w 0xFFL = 0L do
      w := Int64.shift_right_logical !w 8;
      n := !n + 8
    done;
    while Int64.logand !w 1L = 0L do
      w := Int64.shift_right_logical !w 1;
      incr n
    done;
    !n
  end

(* The native-int count is on every sketch update path, where the
   geometric levels it sees make a loop's exit branch unpredictable.  So
   it is branch-free on the common path, by de Bruijn multiplication:
   [v land (-v)] isolates the lowest set bit of a nonzero 32-bit [v], and
   multiplying that power of two by the de Bruijn constant leaves a
   distinct 5-bit pattern in bits 27..31, which the table maps back to
   the bit's index.  A 63-bit word is done as two 32-bit halves. *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] trailing_zeros32 v =
  Array.unsafe_get debruijn32
    ((((v land -v) * 0x077C_B531) land 0xFFFF_FFFF) lsr 27)

let[@inline] trailing_zeros_int w =
  let low = w land 0xFFFF_FFFF in
  if low <> 0 then trailing_zeros32 low
  else if w = 0 then 63
  else 32 + trailing_zeros32 (w lsr 32)

(* [Universal.bits ~shift:0] keeps exactly the low 63 bits of the hash.
   When any of them is set, the trailing-zero count of the full word
   equals that of the truncated word (< 63).  When all are zero the full
   count is 63 or 64, and the cap makes both answers 63 — so the
   native-int path is bit-for-bit [min 63 (trailing_zeros (hash h v))],
   and never boxes. *)
let[@inline] level_of_low low = if low = 0 then 63 else trailing_zeros_int low

(* Gibbons–Tirthapura's own form of the level test: a word is below
   level [l] iff one of its low [l] bits is set.  [1 lsl l] is
   unspecified for [l > 63], and from [l = 63] on every bit of the
   63-bit word counts, so the mask saturates at all ones. *)
let below_mask l = if l >= 63 then -1 else (1 lsl l) - 1

let level h v = level_of_low (Universal.bits h ~shift:0 v)
