type t =
  (* The stored word is [Splitmix.mix seed], not the raw seed:
     [mix_seeded] re-derives it on every call, so premixing once at
     construction halves the per-hash work while producing bit-identical
     hash values. *)
  | Mixer of int64 (* premixed seed for SplitMix finalizer *)
  | Multiply_shift of int64 * int64 (* odd multiplier a, offset b *)

let create ~seed = Mixer (Splitmix.mix seed)

let of_rng rng = Mixer (Splitmix.mix (Rng.int64 rng))

let multiply_shift rng =
  let a = Int64.logor (Rng.int64 rng) 1L in
  let b = Rng.int64 rng in
  Multiply_shift (a, b)

(* (a*x + b) over Z/2^64; the high bits are the universal ones, so we
   swap halves to make low bits usable by callers too. *)
let[@inline] multiply_shift_word a b x =
  let v = Int64.add (Int64.mul a x) b in
  Int64.logor (Int64.shift_right_logical v 32) (Int64.shift_left v 32)

let hash h x =
  let x = Int64.of_int x in
  match h with
  | Mixer premixed -> Splitmix.mix (Int64.add premixed x)
  | Multiply_shift (a, b) -> multiply_shift_word a b x

(* The native-int twin of [hash]: the 64-bit word never leaves a single
   function (here or {!Splitmix.mix_bits}), so nothing is boxed. *)
let bits h ~shift x =
  match h with
  | Mixer premixed -> Splitmix.mix_bits ~premixed ~shift x
  | Multiply_shift (a, b) ->
    Int64.to_int
      (Int64.shift_right_logical
         (multiply_shift_word a b (Int64.of_int x))
         shift)

let bits_block h ~shift ~src ~pos ~len ~dst =
  match h with
  | Mixer premixed ->
    Splitmix.mix_bits_block ~premixed ~shift ~src ~pos ~len ~dst
  | Multiply_shift _ ->
    if
      pos < 0 || len < 0
      || pos + len > Array.length src
      || len > Array.length dst
    then invalid_arg "Universal.bits_block: slice out of range";
    for j = 0 to len - 1 do
      Array.unsafe_set dst j (bits h ~shift (Array.unsafe_get src (pos + j)))
    done

let to_range h ~buckets x =
  if buckets <= 0 then invalid_arg "Universal.to_range: buckets must be > 0";
  (* Use the top 62 bits to stay within OCaml's native int range. *)
  bits h ~shift:2 x mod buckets
