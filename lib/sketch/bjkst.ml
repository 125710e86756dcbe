module Rng = Wd_hashing.Rng
module Universal = Wd_hashing.Universal

type family = { k : int; hash : Universal.t; estimator : Sketch_intf.estimator }

(* The k smallest hash values, as a max-heap of unsigned 64-bit words so the
   largest retained value is evicted in O(log k); a hash set mirrors the heap
   for duplicate suppression. *)
type t = {
  fam : family;
  heap : int64 array; (* max-heap on unsigned compare; [0, size) live *)
  mutable size : int;
  members : (int64, unit) Hashtbl.t;
}

let name = "bjkst"

let family_custom ~rng ~k =
  if k < 1 then invalid_arg "Bjkst.family_custom: k must be >= 1";
  { k; hash = Universal.of_rng rng; estimator = Sketch_intf.Classic }

let with_estimator estimator fam = { fam with estimator }
let estimator fam = fam.estimator

let family ~rng ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Bjkst.family: accuracy must be in (0,1)";
  let delta = 1.0 -. confidence in
  let k =
    int_of_float
      (Float.ceil
         ((1.0 /. accuracy) ** 2.0 *. Float.max 1.0 (Float.log (1.0 /. delta))))
  in
  family_custom ~rng ~k:(max 2 k)

let k fam = fam.k

let create fam =
  { fam; heap = Array.make fam.k 0L; size = 0; members = Hashtbl.create (2 * fam.k) }

let copy t =
  { t with heap = Array.copy t.heap; members = Hashtbl.copy t.members }

let ult a b = Int64.unsigned_compare a b < 0

let sift_up t i0 =
  let i = ref i0 in
  while !i > 0 && ult t.heap.((!i - 1) / 2) t.heap.(!i) do
    let p = (!i - 1) / 2 in
    let tmp = t.heap.(p) in
    t.heap.(p) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := p
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let largest = ref !i in
    if l < t.size && ult t.heap.(!largest) t.heap.(l) then largest := l;
    if r < t.size && ult t.heap.(!largest) t.heap.(r) then largest := r;
    if !largest = !i then continue := false
    else begin
      let tmp = t.heap.(!i) in
      t.heap.(!i) <- t.heap.(!largest);
      t.heap.(!largest) <- tmp;
      i := !largest
    end
  done

let insert_hash t h =
  if Hashtbl.mem t.members h then false
  else if t.size < t.fam.k then begin
    t.heap.(t.size) <- h;
    t.size <- t.size + 1;
    Hashtbl.replace t.members h ();
    sift_up t (t.size - 1);
    true
  end
  else if ult h t.heap.(0) then begin
    Hashtbl.remove t.members t.heap.(0);
    t.heap.(0) <- h;
    Hashtbl.replace t.members h ();
    sift_down t;
    true
  end
  else false

let add t v = insert_hash t (Universal.hash t.fam.hash v)

(* An item is its own key: the hash is left to [add], which reads all 64
   bits of [Universal.hash]. *)
let keys _ = Sketch_intf.copy_keys

let add_key = add

(* Equal to folding [add] (change flags discarded); the hash function
   load is hoisted out of the loop. *)
let add_batch t vs =
  let hash = t.fam.hash in
  for i = 0 to Array.length vs - 1 do
    ignore (insert_hash t (Universal.hash hash (Array.unsafe_get vs i)) : bool)
  done

let merge_into ~dst src =
  for i = 0 to src.size - 1 do
    ignore (insert_hash dst src.heap.(i) : bool)
  done

(* Normalize an unsigned 64-bit word into (0, 1]. *)
let normalized h =
  let top53 = Int64.to_float (Int64.shift_right_logical h 11) in
  (top53 +. 1.0) /. 9007199254740992.0

let estimate t =
  if t.size = 0 then 0.0
  else if t.size < t.fam.k then Float.of_int t.size
  else begin
    (* kth smallest value is the heap root (max of the retained minima). *)
    let u = normalized t.heap.(0) in
    match t.fam.estimator with
    | Sketch_intf.Classic -> Float.of_int (t.fam.k - 1) /. u
    | Sketch_intf.Mle ->
      (* The likelihood of the kth order statistic of n uniforms,
         C(n,k) k u^(k-1) (1-u)^(n-k), is maximized over n at
         n ~= k/u - 1 (the integer MLE is its floor): the Clifford-Cosma
         counterpart for KMV, against the classical unbiased (k-1)/u. *)
      (Float.of_int t.fam.k /. u) -. 1.0
  end

let size_bytes t = 8 * t.size

(* Each hash value of the target the receiver lacks ships whole. *)
let delta_bytes ~from target =
  let missing = ref 0 in
  for i = 0 to target.size - 1 do
    if not (Hashtbl.mem from.members target.heap.(i)) then incr missing
  done;
  8 * !missing

let equal a b =
  a.size = b.size
  && Hashtbl.fold (fun h () acc -> acc && Hashtbl.mem b.members h) a.members true

let family_of t = t.fam

let to_bytes t =
  let buf = Bytes.create (4 + (8 * t.size)) in
  Bytes.set_int32_le buf 0 (Int32.of_int t.size);
  for i = 0 to t.size - 1 do
    Bytes.set_int64_le buf (4 + (8 * i)) t.heap.(i)
  done;
  buf

let of_bytes fam buf =
  if Bytes.length buf < 4 then invalid_arg "Bjkst.of_bytes: truncated buffer";
  let n = Int32.to_int (Bytes.get_int32_le buf 0) in
  if n < 0 || n > fam.k then
    invalid_arg "Bjkst.of_bytes: value count out of range";
  if Bytes.length buf <> 4 + (8 * n) then
    invalid_arg "Bjkst.of_bytes: buffer length does not match the count";
  let t = create fam in
  for i = 0 to n - 1 do
    insert_hash t (Bytes.get_int64_le buf (4 + (8 * i))) |> ignore
  done;
  t

(* The uniform (alpha, delta, seed) constructor pair: the paper's
   parameter names over the (accuracy, confidence) sizing above. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Bjkst.family_of_params: delta must be in (0,1)";
  family
    ~rng:(Wd_hashing.Rng.create seed)
    ~accuracy:alpha
    ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
