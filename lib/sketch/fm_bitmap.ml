(* The 64-bit bitmap is stored as two 32-bit native halves: bit [l] lives
   in [lo] for [l < 32] and in [hi] for [l >= 32].  A [mutable int64]
   field would box on every store and every mask computation; with native
   halves the set-bit test-and-set is pure machine arithmetic, which keeps
   the per-item sketch update path allocation-free. *)
type t = { mutable lo : int; mutable hi : int }

let phi = 0.77351

(* 2^i for i in [0, 64], exact ([Float.ldexp] of 1.0). *)
let pow2 = Array.init 65 (fun i -> Float.ldexp 1.0 i)

let create () = { lo = 0; hi = 0 }

let copy t = { lo = t.lo; hi = t.hi }

let add_level t lvl =
  if lvl < 0 || lvl > 63 then invalid_arg "Fm_bitmap.add_level: level out of range";
  if lvl < 32 then begin
    let mask = 1 lsl lvl in
    if t.lo land mask = 0 then begin
      t.lo <- t.lo lor mask;
      true
    end
    else false
  end
  else begin
    let mask = 1 lsl (lvl - 32) in
    if t.hi land mask = 0 then begin
      t.hi <- t.hi lor mask;
      true
    end
    else false
  end

let lowest_zero t =
  (* Index of lowest zero = trailing zeros of the complement, one half at
     a time. *)
  let m = lnot t.lo land 0xFFFFFFFF in
  if m <> 0 then Wd_hashing.Geometric.trailing_zeros_int m
  else
    let m = lnot t.hi land 0xFFFFFFFF in
    if m <> 0 then 32 + Wd_hashing.Geometric.trailing_zeros_int m else 64

let estimate t = pow2.(lowest_zero t) /. phi

let merge_into ~dst src =
  dst.lo <- dst.lo lor src.lo;
  dst.hi <- dst.hi lor src.hi

(* Kernighan's loop: each step clears the lowest set bit. *)
let popcount x =
  let x = ref x and n = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr n
  done;
  !n

let missing ~from t =
  popcount (t.lo land lnot from.lo) + popcount (t.hi land lnot from.hi)

let equal a b = a.lo = b.lo && a.hi = b.hi

let is_empty t = t.lo = 0 && t.hi = 0

let bits t =
  Int64.logor
    (Int64.shift_left (Int64.of_int t.hi) 32)
    (Int64.of_int t.lo)

let of_bits bits =
  {
    lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
    hi = Int64.to_int (Int64.shift_right_logical bits 32);
  }

let size_bytes = 8
