module Rng = Wd_hashing.Rng
module Universal = Wd_hashing.Universal
module Geometric = Wd_hashing.Geometric

type family = { hash : Universal.t; threshold : int }

type t = {
  fam : family;
  mutable level : int;
  table : (int, int) Hashtbl.t; (* retained item -> count *)
}

let family ~rng ~threshold =
  if threshold < 1 then invalid_arg "Distinct_sampler.family: threshold must be >= 1";
  { hash = Universal.of_rng rng; threshold }

let threshold fam = fam.threshold

let create fam = { fam; level = 0; table = Hashtbl.create 64 }

let copy t = { t with table = Hashtbl.copy t.table }

let level t = t.level

let item_level t v = Geometric.level t.fam.hash v

let level_bits t ~src ~pos ~len ~dst =
  Universal.bits_block t.fam.hash ~shift:0 ~src ~pos ~len ~dst

let below_mask = Geometric.below_mask

(* [v]'s binding, or 0 when it has none; no option is built. *)
let find0 table v = try Hashtbl.find table v with Not_found -> 0

(* In place: removing a binding keeps the bucket order and the table
   size, so iteration order is what removal over a copy gave. *)
let prune t =
  let l = t.level in
  Hashtbl.filter_map_inplace
    (fun v c -> if item_level t v < l then None else Some c)
    t.table

(* Raise the level until at most [threshold] items are retained. *)
let rebalance t =
  while Hashtbl.length t.table > t.fam.threshold do
    t.level <- t.level + 1;
    prune t
  done

let add_count t v c =
  if c < 0 then invalid_arg "Distinct_sampler.add_count: negative count";
  if c > 0 && item_level t v >= t.level then begin
    Hashtbl.replace t.table v (find0 t.table v + c);
    rebalance t
  end

let add t v = add_count t v 1

(* Equal to folding [add]: one arrival per element, with the level-hash
   load and the count-positivity test hoisted out of the loop. *)
let add_batch t vs =
  let hash = t.fam.hash in
  for i = 0 to Array.length vs - 1 do
    let v = Array.unsafe_get vs i in
    if Geometric.level hash v >= t.level then begin
      Hashtbl.replace t.table v (find0 t.table v + 1);
      rebalance t
    end
  done

let delete_count t v c =
  if c < 0 then invalid_arg "Distinct_sampler.delete_count: negative count";
  if c > 0 && item_level t v >= t.level then begin
    match Hashtbl.find_opt t.table v with
    | None ->
      if c > 0 then
        invalid_arg "Distinct_sampler.delete_count: deleting an absent item"
    | Some current ->
      if c > current then
        invalid_arg "Distinct_sampler.delete_count: deletions exceed insertions"
      else if c = current then Hashtbl.remove t.table v
      else Hashtbl.replace t.table v (current - c)
  end

let delete t v = delete_count t v 1

let set_level t l =
  if l > t.level then begin
    t.level <- l;
    prune t
  end

let mem t v = Hashtbl.mem t.table v

let count t v = find0 t.table v

let size t = Hashtbl.length t.table

let contents t = Hashtbl.fold (fun v c acc -> (v, c) :: acc) t.table []

let iter f t = Hashtbl.iter f t.table

(* [Float.ldexp 1.0 l] is exactly 2^l, bit-identical to the former
   [2.0 ** Float.of_int l] but transcendental-free. *)
let estimate_distinct t = Float.of_int (size t) *. Float.ldexp 1.0 t.level

let merge_into ~dst src =
  dst.level <- max dst.level src.level;
  prune dst;
  Hashtbl.iter
    (fun v c ->
      if item_level dst v >= dst.level then begin
        Hashtbl.replace dst.table v (find0 dst.table v + c)
      end)
    src.table;
  rebalance dst

let size_bytes t = 16 * size t

let to_bytes t =
  let n = size t in
  let buf = Bytes.create (5 + (16 * n)) in
  Bytes.set_uint8 buf 0 t.level;
  Bytes.set_int32_le buf 1 (Int32.of_int n);
  let i = ref 0 in
  Hashtbl.iter
    (fun v c ->
      Bytes.set_int64_le buf (5 + (16 * !i)) (Int64.of_int v);
      Bytes.set_int64_le buf (13 + (16 * !i)) (Int64.of_int c);
      incr i)
    t.table;
  buf

let of_bytes fam buf =
  if Bytes.length buf < 5 then
    invalid_arg "Distinct_sampler.of_bytes: truncated buffer";
  let level = Bytes.get_uint8 buf 0 in
  let n = Int32.to_int (Bytes.get_int32_le buf 1) in
  if n < 0 || n > fam.threshold then
    invalid_arg "Distinct_sampler.of_bytes: pair count out of range";
  if Bytes.length buf <> 5 + (16 * n) then
    invalid_arg "Distinct_sampler.of_bytes: buffer length does not match";
  let t = create fam in
  t.level <- level;
  for i = 0 to n - 1 do
    let v = Int64.to_int (Bytes.get_int64_le buf (5 + (16 * i))) in
    let c = Int64.to_int (Bytes.get_int64_le buf (13 + (16 * i))) in
    if c <= 0 then invalid_arg "Distinct_sampler.of_bytes: non-positive count";
    if item_level t v < level then
      invalid_arg "Distinct_sampler.of_bytes: pair violates the level rule";
    Hashtbl.replace t.table v c
  done;
  t

(* The uniform (alpha, delta, seed) constructor pair over the
   error-driven threshold sizing. *)

let family_of_params ~alpha ~delta ~seed =
  if alpha <= 0.0 || alpha >= 1.0 then
    invalid_arg "Distinct_sampler.family_of_params: alpha must be in (0,1)";
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Distinct_sampler.family_of_params: delta must be in (0,1)";
  let threshold =
    int_of_float
      (Float.ceil
         ((1.0 /. alpha) ** 2.0 *. Float.max 1.0 (Float.log (1.0 /. delta))))
  in
  family ~rng:(Rng.create seed) ~threshold

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
