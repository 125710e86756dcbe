module Rng = Wd_hashing.Rng
module Universal = Wd_hashing.Universal
module Geometric = Wd_hashing.Geometric

type variant = Averaged | Stochastic

type family = {
  variant : variant;
  estimator : Sketch_intf.estimator;
  m : int;
  (* Averaged: m level hashes, one per bitmap.
     Stochastic: hashes.(0) provides both bucket (high bits) and level
     (trailing zeros), which are independent enough for PCSA. *)
  hashes : Universal.t array;
  bucket_hash : Universal.t;
  frac_pow : float array;
  (* frac_pow.(r) = 2^(r/m): the fractional part of the estimate's
     [2^(sum/m)], precomputed once per family so the estimate loop is
     free of [Float.pow] (see [pow2_mean]). *)
}

(* [scratch] is the MLE counts buffer (one slot per lowest-zero value,
   clobbered by every Mle estimate); owning it per sketch keeps the
   estimate path allocation-free without sharing mutable state between
   sketches living on different domains. *)
type t = { fam : family; bitmaps : Fm_bitmap.t array; scratch : int array }

let name = "fm"

let family_custom ~rng ~variant ~bitmaps =
  if bitmaps < 1 then invalid_arg "Fm.family_custom: bitmaps must be >= 1";
  let n_hashes = match variant with Averaged -> bitmaps | Stochastic -> 1 in
  {
    variant;
    estimator = Sketch_intf.Classic;
    m = bitmaps;
    hashes = Array.init n_hashes (fun _ -> Universal.of_rng rng);
    bucket_hash = Universal.of_rng rng;
    frac_pow =
      Array.init bitmaps (fun r ->
          2.0 ** (Float.of_int r /. Float.of_int bitmaps));
  }

let family ~rng ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Fm.family: accuracy must be in (0,1)";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Fm.family: confidence must be in (0,1)";
  (* Standard error of the averaged estimator is ~0.78/sqrt m
     asymptotically; continuous monitoring evaluates the estimate at
     every prefix, so the worst point of the trajectory sits in the
     tail — size with a conservative constant 1.0 to keep the whole
     run inside the budget.  Boosting to confidence 1-delta multiplies
     m by ln(1/delta). *)
  let delta = 1.0 -. confidence in
  let base = (1.0 /. accuracy) ** 2.0 in
  let m = int_of_float (Float.ceil (base *. Float.max 1.0 (Float.log (1.0 /. delta)))) in
  family_custom ~rng ~variant:Stochastic ~bitmaps:(max 1 m)

let bitmaps fam = fam.m
let variant fam = fam.variant
let with_estimator estimator fam = { fam with estimator }
let estimator fam = fam.estimator

let create fam =
  {
    fam;
    bitmaps = Array.init fam.m (fun _ -> Fm_bitmap.create ());
    scratch = Array.make 65 0;
  }

let copy t =
  { t with bitmaps = Array.map Fm_bitmap.copy t.bitmaps; scratch = Array.make 65 0 }

let add t v =
  let fam = t.fam in
  match fam.variant with
  | Averaged ->
    let changed = ref false in
    for j = 0 to fam.m - 1 do
      if Fm_bitmap.add_level t.bitmaps.(j) (Geometric.level fam.hashes.(j) v)
      then changed := true
    done;
    !changed
  | Stochastic ->
    let j = Universal.to_range fam.bucket_hash ~buckets:fam.m v in
    Fm_bitmap.add_level t.bitmaps.(j) (Geometric.level fam.hashes.(0) v)

(* An item is its own key: the hash is left to [add], whose [Averaged]
   variant hashes each item once per bitmap. *)
let keys _ = Sketch_intf.copy_keys

let add_key = add

(* Equal to folding [add] over [vs] (change flags discarded): the family
   dispatch, field loads and bounds checks are hoisted out of the loop,
   which is what makes the batched path worth threading up through the
   trackers and the simulator. *)
let add_batch t vs =
  let fam = t.fam in
  let bitmaps = t.bitmaps in
  let n = Array.length vs in
  match fam.variant with
  | Averaged ->
    let hashes = fam.hashes in
    let m = fam.m in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get vs i in
      for j = 0 to m - 1 do
        ignore
          (Fm_bitmap.add_level
             (Array.unsafe_get bitmaps j)
             (Geometric.level (Array.unsafe_get hashes j) v)
            : bool)
      done
    done
  | Stochastic ->
    let bucket_hash = fam.bucket_hash in
    let level_hash = Array.unsafe_get fam.hashes 0 in
    let m = fam.m in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get vs i in
      (* [to_range] yields j in [0, m), so the bitmap access is in
         bounds by construction. *)
      let j = Universal.to_range bucket_hash ~buckets:m v in
      ignore
        (Fm_bitmap.add_level
           (Array.unsafe_get bitmaps j)
           (Geometric.level level_hash v)
          : bool)
    done

let merge_into ~dst src =
  if dst.fam != src.fam && dst.fam <> src.fam then
    invalid_arg "Fm.merge_into: sketches from different families";
  Array.iteri
    (fun j bm -> Fm_bitmap.merge_into ~dst:dst.bitmaps.(j) bm)
    src.bitmaps

(* [2^(sum/m)] with [sum] an integer in [0, 64m]: split into quotient and
   remainder so the only table lookup plus an exact [ldexp] replaces a
   transcendental [Float.pow] — this runs on the tracker hot path (the
   estimate is refreshed whenever an add changes the sketch). *)
let pow2_mean fam sum =
  Float.ldexp fam.frac_pow.(sum mod fam.m) (sum / fam.m)

let estimate t =
  let fam = t.fam in
  let sum = ref 0 and empty = ref 0 in
  for j = 0 to fam.m - 1 do
    let bm = Array.unsafe_get t.bitmaps j in
    sum := !sum + Fm_bitmap.lowest_zero bm;
    if Fm_bitmap.is_empty bm then incr empty
  done;
  let m = Float.of_int fam.m in
  let classic =
    match fam.variant with
    | Averaged -> pow2_mean fam !sum /. Fm_bitmap.phi
    | Stochastic ->
      (* Stochastic averaging is biased upwards when the number of
         distinct items is comparable to m (many bitmaps still empty):
         blend towards linear counting on the empty-bitmap fraction in
         that regime.  When no bitmap is empty — reachable with low raw,
         e.g. bitmaps whose only set bits sit above bit 0 — linear
         counting has no signal to read and [linear_blend] keeps the raw
         estimate unconditionally. *)
      let raw = m *. pow2_mean fam !sum /. Fm_bitmap.phi in
      Estimators.linear_blend ~m ~empty:!empty ~raw
  in
  match fam.estimator with
  | Sketch_intf.Classic -> classic
  | Sketch_intf.Mle ->
    let counts = t.scratch in
    Array.fill counts 0 65 0;
    for j = 0 to fam.m - 1 do
      let z = Fm_bitmap.lowest_zero (Array.unsafe_get t.bitmaps j) in
      counts.(z) <- counts.(z) + 1
    done;
    let scale = match fam.variant with Averaged -> 1.0 | Stochastic -> m in
    scale *. Estimators.fm ~counts ~init:(classic /. scale)

let size_bytes t = Fm_bitmap.size_bytes * t.fam.m

(* Each missing bit ships as a (bitmap index, level) coordinate: 4 bytes. *)
let delta_bytes ~from target =
  let missing = ref 0 in
  for j = 0 to target.fam.m - 1 do
    missing :=
      !missing + Fm_bitmap.missing ~from:from.bitmaps.(j) target.bitmaps.(j)
  done;
  4 * !missing

let equal a b =
  Array.length a.bitmaps = Array.length b.bitmaps
  && (let ok = ref true in
      Array.iteri (fun j bm -> if not (Fm_bitmap.equal bm b.bitmaps.(j)) then ok := false) a.bitmaps;
      !ok)

let is_empty t = Array.for_all Fm_bitmap.is_empty t.bitmaps

let family_of t = t.fam

let to_bytes t =
  let buf = Bytes.create (8 * t.fam.m) in
  Array.iteri
    (fun j bm -> Bytes.set_int64_le buf (8 * j) (Fm_bitmap.bits bm))
    t.bitmaps;
  buf

let of_bytes fam buf =
  if Bytes.length buf <> 8 * fam.m then
    invalid_arg "Fm.of_bytes: buffer length does not match the family";
  {
    fam;
    bitmaps =
      Array.init fam.m (fun j ->
          Fm_bitmap.of_bits (Bytes.get_int64_le buf (8 * j)));
    scratch = Array.make 65 0;
  }

(* The uniform (alpha, delta, seed) constructor pair: the paper's
   parameter names over the (accuracy, confidence) sizing above. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Fm.family_of_params: delta must be in (0,1)";
  family
    ~rng:(Wd_hashing.Rng.create seed)
    ~accuracy:alpha
    ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
