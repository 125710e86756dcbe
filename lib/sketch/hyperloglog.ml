module Rng = Wd_hashing.Rng
module Universal = Wd_hashing.Universal
module Geometric = Wd_hashing.Geometric

type family = {
  m : int;
  log2m : int;
  hash : Universal.t;
  estimator : Sketch_intf.estimator;
}

(* [scratch] is the MLE register-value counts buffer (clobbered by every
   Mle estimate); per-sketch so estimates never share mutable state. *)
type t = { fam : family; regs : Bytes.t; scratch : int array }

let name = "hll"

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let min_registers = 16

let family_custom ~rng ~registers =
  if registers < min_registers || not (is_power_of_two registers) then
    invalid_arg "Hyperloglog.family_custom: registers must be a power of two >= 16";
  let rec log2 n acc = if n = 1 then acc else log2 (n / 2) (acc + 1) in
  {
    m = registers;
    log2m = log2 registers 0;
    hash = Universal.of_rng rng;
    estimator = Sketch_intf.Classic;
  }

let family ~rng ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Hyperloglog.family: accuracy must be in (0,1)";
  let delta = 1.0 -. confidence in
  let target =
    (1.04 /. accuracy) ** 2.0 *. Float.max 1.0 (Float.log (1.0 /. delta))
  in
  let m = ref min_registers in
  while Float.of_int !m < target do
    m := !m * 2
  done;
  family_custom ~rng ~registers:!m

let registers fam = fam.m
let with_estimator estimator fam = { fam with estimator }
let estimator fam = fam.estimator

let create fam = { fam; regs = Bytes.make fam.m '\000'; scratch = Array.make 64 0 }

let copy t = { t with regs = Bytes.copy t.regs; scratch = Array.make 64 0 }

(* Bucket from the top log2m bits; rank from the remaining low bits.  The
   low [64 - log2m <= 60] bits fit a native int, so the rank (a
   trailing-zero count of those bits, 1-based) needs no Int64 loop: when
   they are all zero the old 64-bit count was [>= 64 - log2m] and the
   [min 63] cap produced the same 63 the fast path returns. *)
let add t v =
  let fam = t.fam in
  let log2m = fam.log2m in
  let h = Universal.hash fam.hash v in
  let j = Int64.to_int (Int64.shift_right_logical h (64 - log2m)) in
  let rest = Int64.to_int h land ((1 lsl (64 - log2m)) - 1) in
  let rank =
    if rest = 0 then 63
    else Int.min 63 (1 + Geometric.trailing_zeros_int rest)
  in
  (* j < 2^log2m = m = |regs| by construction. *)
  if rank > Char.code (Bytes.unsafe_get t.regs j) then begin
    Bytes.unsafe_set t.regs j (Char.unsafe_chr rank);
    true
  end
  else false

(* An item is its own key: the hash is left to [add], which reads all 64
   bits of [Universal.hash]. *)
let keys _ = Sketch_intf.copy_keys

let add_key = add

(* Equal to folding [add] (change flags discarded) with the family loads
   hoisted out of the loop. *)
let add_batch t vs =
  let fam = t.fam in
  let hash = fam.hash in
  let log2m = fam.log2m in
  let shift = 64 - log2m in
  let low_mask = (1 lsl shift) - 1 in
  let regs = t.regs in
  for i = 0 to Array.length vs - 1 do
    let h = Universal.hash hash (Array.unsafe_get vs i) in
    let j = Int64.to_int (Int64.shift_right_logical h shift) in
    let rest = Int64.to_int h land low_mask in
    let rank =
      if rest = 0 then 63
      else Int.min 63 (1 + Geometric.trailing_zeros_int rest)
    in
    if rank > Char.code (Bytes.unsafe_get regs j) then
      Bytes.unsafe_set regs j (Char.unsafe_chr rank)
  done

let merge_into ~dst src =
  for j = 0 to dst.fam.m - 1 do
    let a = Bytes.get dst.regs j and b = Bytes.get src.regs j in
    if Char.code b > Char.code a then Bytes.set dst.regs j b
  done

(* Bias-correction constant.  Only [m >= 16] is constructible
   ({!family_custom} rejects smaller register counts), so the asymptotic
   formula is reached only for [m >= 128] where it is accurate; the
   [m <= 16] clamp keeps the function total (and unbiased-by-accident)
   should a smaller count ever be computed with. *)
let alpha m =
  if m <= 16 then 0.673
  else if m = 32 then 0.697
  else if m = 64 then 0.709
  else 0.7213 /. (1.0 +. (1.079 /. Float.of_int m))

(* 2^-r for every possible register value, exact; replaces a
   transcendental [2.0 ** Float.of_int (-r)] per register per estimate. *)
let inv_pow2 = Array.init 64 (fun r -> Float.ldexp 1.0 (-r))

let estimate t =
  let m = t.fam.m in
  let regs = t.regs in
  let sum = ref 0.0 and zeros = ref 0 in
  for j = 0 to m - 1 do
    let r = Char.code (Bytes.unsafe_get regs j) in
    sum := !sum +. Array.unsafe_get inv_pow2 r;
    if r = 0 then incr zeros
  done;
  let mf = Float.of_int m in
  (* Small range blends towards linear counting on the zero-register
     count instead of hard-switching at 2.5m — see
     [Estimators.linear_blend] for the crossfade and the zeros = 0
     fallback. *)
  let raw = alpha m *. mf *. mf /. !sum in
  let classic = Estimators.linear_blend ~m:mf ~empty:!zeros ~raw in
  match t.fam.estimator with
  | Sketch_intf.Classic -> classic
  | Sketch_intf.Mle ->
    let counts = t.scratch in
    Array.fill counts 0 64 0;
    for j = 0 to m - 1 do
      let r = Char.code (Bytes.unsafe_get regs j) in
      counts.(r) <- counts.(r) + 1
    done;
    mf *. Estimators.hll ~counts ~init:(classic /. mf)

let size_bytes t = t.fam.m

(* Each register of the target exceeding the receiver's ships as a
   (register index, value) pair: 3 bytes. *)
let delta_bytes ~from target =
  let missing = ref 0 in
  for j = 0 to target.fam.m - 1 do
    if Char.code (Bytes.get target.regs j) > Char.code (Bytes.get from.regs j)
    then incr missing
  done;
  3 * !missing

let equal a b = Bytes.equal a.regs b.regs

let family_of t = t.fam

let to_bytes t = Bytes.copy t.regs

let of_bytes fam buf =
  if Bytes.length buf <> fam.m then
    invalid_arg "Hyperloglog.of_bytes: buffer length does not match the family";
  Bytes.iter
    (fun c ->
      if Char.code c > 63 then
        invalid_arg "Hyperloglog.of_bytes: register value out of range")
    buf;
  { fam; regs = Bytes.copy buf; scratch = Array.make 64 0 }

(* The uniform (alpha, delta, seed) constructor pair: the paper's
   parameter names over the (accuracy, confidence) sizing above. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Hyperloglog.family_of_params: delta must be in (0,1)";
  family
    ~rng:(Wd_hashing.Rng.create seed)
    ~accuracy:alpha
    ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
