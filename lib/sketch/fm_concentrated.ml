module Rng = Wd_hashing.Rng
module Mixed_tabulation = Wd_hashing.Mixed_tabulation

type family = {
  m : int;
  hash : Mixed_tabulation.t;
  estimator : Sketch_intf.estimator;
  frac_pow : float array; (* frac_pow.(r) = 2^(r/m), see Fm.pow2_mean *)
}

(* [scratch] is the MLE counts buffer, as in {!Fm}. *)
type t = { fam : family; bitmaps : Fm_bitmap.t array; scratch : int array }

let name = "fmc"

let family_custom ~rng ~buckets =
  if buckets < 1 then
    invalid_arg "Fm_concentrated.family_custom: buckets must be >= 1";
  {
    m = buckets;
    hash = Mixed_tabulation.create rng;
    estimator = Sketch_intf.Classic;
    frac_pow =
      Array.init buckets (fun r ->
          2.0 ** (Float.of_int r /. Float.of_int buckets));
  }

let family ~rng ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Fm_concentrated.family: accuracy must be in (0,1)";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Fm_concentrated.family: confidence must be in (0,1)";
  let delta = 1.0 -. confidence in
  family_custom ~rng
    ~buckets:(Mixed_tabulation.concentrated_buckets ~alpha:accuracy ~delta)

let buckets fam = fam.m
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

(* One mixed-tabulation hash per item supplies both coordinates: bucket
   from the high 32 bits (mod m), level from the trailing zeros of the
   low 32 bits — the PCSA split, but through a family strong enough that
   no averaging over independent repetitions is needed.  Levels cap at
   32, bounding each bucket near 2^32 phi; with m >= 16 buckets the
   sketch range exceeds any int stream this code can see.
   [Mixed_tabulation.pcsa] hands both over packed in one native int, the
   item's key, so an update allocates nothing. *)
let keys fam ~src ~pos ~len ~dst =
  Mixed_tabulation.pcsa_block fam.hash ~src ~pos ~len ~dst

let add_key t p =
  Fm_bitmap.add_level t.bitmaps.((p lsr 6) mod t.fam.m) (p land 63)

let add t v = add_key t (Mixed_tabulation.pcsa t.fam.hash v)

(* Equal to folding [add] (change flags discarded) with the hash tables
   and bounds checks hoisted out of the loop. *)
let add_batch t vs =
  let fam = t.fam in
  let hash = fam.hash in
  let m = fam.m in
  let bitmaps = t.bitmaps in
  for i = 0 to Array.length vs - 1 do
    let p = Mixed_tabulation.pcsa hash (Array.unsafe_get vs i) in
    let j = (p lsr 6) mod m in
    ignore (Fm_bitmap.add_level (Array.unsafe_get bitmaps j) (p land 63) : bool)
  done

let merge_into ~dst src =
  if dst.fam != src.fam && dst.fam <> src.fam then
    invalid_arg "Fm_concentrated.merge_into: sketches from different families";
  Array.iteri
    (fun j bm -> Fm_bitmap.merge_into ~dst:dst.bitmaps.(j) bm)
    src.bitmaps

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
  let raw = m *. pow2_mean fam !sum /. Fm_bitmap.phi in
  let classic = Estimators.linear_blend ~m ~empty:!empty ~raw in
  match fam.estimator with
  | Sketch_intf.Classic -> classic
  | Sketch_intf.Mle ->
    let counts = t.scratch in
    Array.fill counts 0 65 0;
    for j = 0 to fam.m - 1 do
      let z = Fm_bitmap.lowest_zero (Array.unsafe_get t.bitmaps j) in
      counts.(z) <- counts.(z) + 1
    done;
    m *. Estimators.fm ~counts ~init:(classic /. m)

let size_bytes t = Fm_bitmap.size_bytes * t.fam.m

(* Each missing bit ships as a (bucket index, level) coordinate: 4 bytes,
   as in {!Fm.delta_bytes}. *)
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
      Array.iteri
        (fun j bm -> if not (Fm_bitmap.equal bm b.bitmaps.(j)) then ok := false)
        a.bitmaps;
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
    invalid_arg "Fm_concentrated.of_bytes: buffer length does not match the family";
  {
    fam;
    bitmaps =
      Array.init fam.m (fun j ->
          Fm_bitmap.of_bits (Bytes.get_int64_le buf (8 * j)));
    scratch = Array.make 65 0;
  }

(* The uniform (alpha, delta, seed) constructor pair. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Fm_concentrated.family_of_params: delta must be in (0,1)";
  family
    ~rng:(Wd_hashing.Rng.create seed)
    ~accuracy:alpha
    ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
