module Rng = Wd_hashing.Rng
module Mixed_tabulation = Wd_hashing.Mixed_tabulation
module Geometric = Wd_hashing.Geometric
module Estimators = Wd_sketch.Estimators
module Fm_bitmap = Wd_sketch.Fm_bitmap

type plane = {
  hash : Mixed_tabulation.t;
  arena : Arena.t;
  mutable memo_key : int;
  mutable memo_pcsa : int; (* an int64 field would box on every store *)
  scratch : int array; (* shared MLE counts buffer, as in {!Fm} *)
}

let plane ?capacity ~rng () =
  let hash = Mixed_tabulation.create rng in
  (* Invariant: [memo_pcsa = pcsa memo_key], established here so the
     memo needs no validity flag or sentinel branch. *)
  {
    hash;
    arena = Arena.create ?capacity ();
    memo_key = min_int;
    memo_pcsa = Mixed_tabulation.pcsa hash min_int;
    scratch = Array.make 65 0;
  }

let plane_words p = Arena.used p.arena

type family = {
  plane : plane;
  m : int;
  estimator : Wd_sketch.Sketch_intf.estimator;
  frac_pow : float array; (* frac_pow.(r) = 2^(r/m), see Fm.pow2_mean *)
}

(* [off] indexes the family plane's arena: registers live at
   [off .. off + m - 1], one 33-bit level bitmap per bucket. *)
type t = { fam : family; off : int }

let name = "fanout"

let family_custom ~plane ~buckets =
  if buckets < 1 then
    invalid_arg "Fanout_sketch.family_custom: buckets must be >= 1";
  {
    plane;
    m = buckets;
    estimator = Wd_sketch.Sketch_intf.Classic;
    frac_pow =
      Array.init buckets (fun r ->
          2.0 ** (Float.of_int r /. Float.of_int buckets));
  }

let family_on ~plane ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Fanout_sketch.family: accuracy must be in (0,1)";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Fanout_sketch.family: confidence must be in (0,1)";
  let delta = 1.0 -. confidence in
  family_custom ~plane
    ~buckets:(Mixed_tabulation.concentrated_buckets ~alpha:accuracy ~delta)

let family ~rng ~accuracy ~confidence =
  family_on ~plane:(plane ~rng ()) ~accuracy ~confidence

let with_estimator estimator fam = { fam with estimator }
let estimator fam = fam.estimator
let buckets fam = fam.m
let plane_of fam = fam.plane
let family_of t = t.fam

let create fam = { fam; off = Arena.alloc fam.plane.arena fam.m }

let copy t =
  let off = Arena.alloc t.fam.plane.arena t.fam.m in
  Arena.blit t.fam.plane.arena ~src:t.off ~dst:off ~len:t.fam.m;
  { t with off }

(* One memoized mixed-tabulation hash per item per plane: the first
   sketch to see an item pays the hash, every other sketch on the plane
   hits the memo.  Correct because the memo invariant
   [memo_pcsa = pcsa memo_key] holds from construction on. *)
let hash_item p v =
  if p.memo_key = v then p.memo_pcsa
  else begin
    let h = Mixed_tabulation.pcsa p.hash v in
    p.memo_key <- v;
    p.memo_pcsa <- h;
    h
  end

(* The bucket/level split of {!Wd_sketch.Fm_concentrated.add}, read off
   [Mixed_tabulation.pcsa]: bucket from the high 32 bits (mod m), level
   from the trailing zeros of the low 32 bits, capped at 32 — so a
   register needs 33 bits. *)
let add t v =
  let p = t.fam.plane in
  let h = hash_item p v in
  let idx = t.off + ((h lsr 6) mod t.fam.m) in
  let r = Arena.unsafe_get p.arena idx in
  let bit = 1 lsl (h land 63) in
  if r land bit = 0 then begin
    Arena.unsafe_set p.arena idx (r lor bit);
    true
  end
  else false

(* An item is its own key: the hash is left to [add], where the plane's
   memo serves every view on the plane with one hash per item. *)
let keys _ = Wd_sketch.Sketch_intf.copy_keys

let add_key = add

(* Equal to folding [add] (change flags discarded); the memo makes the
   hoisting moot, so this is just the loop. *)
let add_batch t vs =
  for i = 0 to Array.length vs - 1 do
    ignore (add t (Array.unsafe_get vs i) : bool)
  done

let merge_into ~dst src =
  if dst.fam != src.fam then
    invalid_arg "Fanout_sketch.merge_into: sketches from different families";
  let arena = dst.fam.plane.arena in
  for j = 0 to dst.fam.m - 1 do
    let r =
      Arena.unsafe_get arena (dst.off + j)
      lor Arena.unsafe_get arena (src.off + j)
    in
    Arena.unsafe_set arena (dst.off + j) r
  done

(* Index of the least significant zero bit of a register: the number of
   trailing ones, i.e. the trailing zeros of the complement (the
   complement is never 0 — registers use 33 of the 63 bits). *)
let lowest_zero r = Geometric.trailing_zeros_int (lnot r)

let pow2_mean fam sum =
  Float.ldexp fam.frac_pow.(sum mod fam.m) (sum / fam.m)

let estimate t =
  let fam = t.fam in
  let arena = fam.plane.arena in
  let sum = ref 0 and empty = ref 0 in
  for j = 0 to fam.m - 1 do
    let r = Arena.unsafe_get arena (t.off + j) in
    sum := !sum + lowest_zero r;
    if r = 0 then incr empty
  done;
  let m = Float.of_int fam.m in
  let raw = m *. pow2_mean fam !sum /. Fm_bitmap.phi in
  let classic = Estimators.linear_blend ~m ~empty:!empty ~raw in
  match fam.estimator with
  | Wd_sketch.Sketch_intf.Classic -> classic
  | Wd_sketch.Sketch_intf.Mle ->
    let counts = fam.plane.scratch in
    Array.fill counts 0 65 0;
    for j = 0 to fam.m - 1 do
      let z = lowest_zero (Arena.unsafe_get arena (t.off + j)) in
      counts.(z) <- counts.(z) + 1
    done;
    m *. Estimators.fm ~counts ~init:(classic /. m)

let size_bytes t = 8 * t.fam.m

(* Each missing bit ships as a (bucket index, level) coordinate: 4
   bytes, as in {!Wd_sketch.Fm.delta_bytes}. *)
let delta_bytes ~from target =
  let arena = target.fam.plane.arena in
  let missing = ref 0 in
  for j = 0 to target.fam.m - 1 do
    let extra =
      Arena.unsafe_get arena (target.off + j)
      land lnot (Arena.unsafe_get arena (from.off + j))
    in
    let x = ref extra in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr missing
    done
  done;
  4 * !missing

let equal a b =
  a.fam.m = b.fam.m
  && (let aa = a.fam.plane.arena and ba = b.fam.plane.arena in
      let ok = ref true in
      for j = 0 to a.fam.m - 1 do
        if Arena.unsafe_get aa (a.off + j) <> Arena.unsafe_get ba (b.off + j)
        then ok := false
      done;
      !ok)

let is_empty t =
  let arena = t.fam.plane.arena in
  let empty = ref true in
  for j = 0 to t.fam.m - 1 do
    if Arena.unsafe_get arena (t.off + j) <> 0 then empty := false
  done;
  !empty

(* The uniform (alpha, delta, seed) constructor pair. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Fanout_sketch.family_of_params: delta must be in (0,1)";
  family ~rng:(Rng.create seed) ~accuracy:alpha ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
