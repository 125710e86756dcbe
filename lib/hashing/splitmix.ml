let golden_gamma = 0x9E3779B97F4A7C15L

(* Constants from Steele, Lea & Flood; identical to Java's SplittableRandom.
   [@inline] lets [mix_bits] below keep the whole finalizer in registers;
   callers in other modules get the boxed out-of-line version. *)
let[@inline] mix x =
  let x = Int64.logxor x (Int64.shift_right_logical x 30) in
  let x = Int64.mul x 0xBF58476D1CE4E5B9L in
  let x = Int64.logxor x (Int64.shift_right_logical x 27) in
  let x = Int64.mul x 0x94D049BB133111EBL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let mix_seeded ~seed x = mix (Int64.add (mix seed) x)

let mix_bits ~premixed ~shift x =
  let w = mix (Int64.add premixed (Int64.of_int x)) in
  Int64.to_int (Int64.shift_right_logical w shift)

(* [mix_bits] over a slice, with the finalizer inlined into the loop: one
   call per block, none per item, and the words stay unboxed.  The loop
   is a function of its own, apart from the slice check's [invalid_arg]
   call, so its arguments and the unboxed [premixed] word stay in
   registers instead of being reloaded from the stack on every item. *)
let[@inline never] mix_bits_fill premixed shift src pos len dst =
  for j = 0 to len - 1 do
    let x = Array.unsafe_get src (pos + j) in
    let w = mix (Int64.add premixed (Int64.of_int x)) in
    Array.unsafe_set dst j (Int64.to_int (Int64.shift_right_logical w shift))
  done

let mix_bits_block ~premixed ~shift ~src ~pos ~len ~dst =
  if
    pos < 0 || len < 0
    || pos + len > Array.length src
    || len > Array.length dst
  then invalid_arg "Splitmix.mix_bits_block: slice out of range";
  mix_bits_fill premixed shift src pos len dst

type t = { mutable state : int64 }

let create seed = { state = mix seed }

let next g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g = create (next g)

let state g = g.state

let of_state s = { state = s }
