(* Unit and property tests for the hashing substrate. *)

module Rng = Wd_hashing.Rng
module Splitmix = Wd_hashing.Splitmix
module Universal = Wd_hashing.Universal
module Tabulation = Wd_hashing.Tabulation
module Geometric = Wd_hashing.Geometric
module Mixed_tabulation = Wd_hashing.Mixed_tabulation

let check_float = Alcotest.(check (float 1e-9))

(* --- Splitmix --- *)

let test_mix_deterministic () =
  Alcotest.(check bool)
    "same input same output" true
    (Int64.equal (Splitmix.mix 12345L) (Splitmix.mix 12345L));
  Alcotest.(check bool)
    "different inputs differ" false
    (Int64.equal (Splitmix.mix 1L) (Splitmix.mix 2L))

let test_mix_avalanche () =
  (* Flipping one input bit should flip roughly half the output bits. *)
  let popcount x =
    let c = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr c
    done;
    !c
  in
  let total = ref 0 in
  let trials = 200 in
  for t = 1 to trials do
    let x = Int64.of_int (t * 7919) in
    let y = Int64.logxor x (Int64.shift_left 1L (t mod 64)) in
    total := !total + popcount (Int64.logxor (Splitmix.mix x) (Splitmix.mix y))
  done;
  let avg = Float.of_int !total /. Float.of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "avalanche average %.1f in [24, 40]" avg)
    true
    (avg > 24.0 && avg < 40.0)

let test_generator_streams () =
  let a = Splitmix.create 9L and b = Splitmix.create 9L in
  for _ = 1 to 10 do
    Alcotest.(check bool)
      "equal seeds give equal streams" true
      (Int64.equal (Splitmix.next a) (Splitmix.next b))
  done;
  let c = Splitmix.split a in
  Alcotest.(check bool)
    "split stream diverges" false
    (Int64.equal (Splitmix.next a) (Splitmix.next c))

let test_state_roundtrip () =
  let g = Splitmix.create 77L in
  ignore (Splitmix.next g : int64);
  let snapshot = Splitmix.state g in
  let h = Splitmix.of_state snapshot in
  Alcotest.(check bool)
    "restored state continues identically" true
    (Int64.equal (Splitmix.next g) (Splitmix.next h))

(* --- Rng --- *)

let test_rng_copy_independent () =
  let g = Rng.create 3 in
  ignore (Rng.int64 g : int64);
  let h = Rng.copy g in
  let from_g = Rng.int64 g in
  let from_h = Rng.int64 h in
  Alcotest.(check bool) "copy continues from same point" true
    (Int64.equal from_g from_h);
  ignore (Rng.int64 g : int64);
  let g3 = Rng.int64 g and h2 = Rng.int64 h in
  Alcotest.(check bool) "streams advance independently" false
    (Int64.equal g3 h2)

let test_rng_int_bounds () =
  let g = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let g = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0 : int))

let test_rng_int_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets gets 10% +- 2.5%. *)
  let g = Rng.create 6 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let f = Float.of_int c /. Float.of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d frequency %.4f" i f)
        true
        (f > 0.075 && f < 0.125))
    buckets

let test_rng_float_range () =
  let g = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_geometric_level_distribution () =
  let g = Rng.create 8 in
  let n = 200_000 in
  let at_least = Array.make 8 0 in
  for _ = 1 to n do
    let l = Rng.geometric_level g in
    for i = 0 to min l 7 do
      at_least.(i) <- at_least.(i) + 1
    done
  done;
  (* Pr[level >= i] = 2^-i. *)
  for i = 0 to 7 do
    let expected = 2.0 ** Float.of_int (-i) in
    let got = Float.of_int at_least.(i) /. Float.of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "Pr[level >= %d] = %.4f vs %.4f" i got expected)
      true
      (Float.abs (got -. expected) < 0.02 +. (0.1 *. expected))
  done

(* --- Universal / Tabulation / Geometric --- *)

let test_universal_deterministic () =
  let h = Universal.create ~seed:99L in
  Alcotest.(check bool) "stable" true
    (Int64.equal (Universal.hash h 42) (Universal.hash h 42))

let test_universal_seeds_differ () =
  let h1 = Universal.create ~seed:1L and h2 = Universal.create ~seed:2L in
  let differ = ref 0 in
  for v = 0 to 99 do
    if not (Int64.equal (Universal.hash h1 v) (Universal.hash h2 v)) then
      incr differ
  done;
  Alcotest.(check bool) "most outputs differ across seeds" true (!differ > 95)

let test_to_range () =
  let g = Rng.create 10 in
  let h = Universal.of_rng g in
  for v = 0 to 999 do
    let r = Universal.to_range h ~buckets:7 v in
    Alcotest.(check bool) "bucket in range" true (r >= 0 && r < 7)
  done

let test_multiply_shift_spread () =
  let g = Rng.create 11 in
  let h = Universal.multiply_shift g in
  let buckets = Array.make 16 0 in
  for v = 0 to 9999 do
    let r = Universal.to_range h ~buckets:16 v in
    buckets.(r) <- buckets.(r) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform buckets" true (c > 400 && c < 900))
    buckets

let test_tabulation_spread () =
  let g = Rng.create 12 in
  let h = Tabulation.create g in
  let buckets = Array.make 16 0 in
  for v = 0 to 9999 do
    let r = Int64.to_int (Int64.logand (Tabulation.hash h v) 15L) in
    buckets.(r) <- buckets.(r) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform buckets" true (c > 400 && c < 900))
    buckets

let test_trailing_zeros () =
  Alcotest.(check int) "tz 0 = 64" 64 (Geometric.trailing_zeros 0L);
  Alcotest.(check int) "tz 1 = 0" 0 (Geometric.trailing_zeros 1L);
  Alcotest.(check int) "tz 8 = 3" 3 (Geometric.trailing_zeros 8L);
  Alcotest.(check int) "tz 2^40 = 40" 40
    (Geometric.trailing_zeros (Int64.shift_left 1L 40));
  Alcotest.(check int) "tz min_int = 63" 63
    (Geometric.trailing_zeros Int64.min_int);
  Alcotest.(check int) "native tz 0 = 63" 63 (Geometric.trailing_zeros_int 0);
  for i = 0 to 62 do
    Alcotest.(check int) (Printf.sprintf "native tz 2^%d" i) i
      (Geometric.trailing_zeros_int (1 lsl i));
    Alcotest.(check int) (Printf.sprintf "native tz -2^%d" i) i
      (Geometric.trailing_zeros_int (-1 lsl i))
  done

let test_geometric_level_of_hash () =
  let g = Rng.create 13 in
  let h = Universal.of_rng g in
  let n = 100_000 in
  let count = Array.make 4 0 in
  for v = 0 to n - 1 do
    let l = Geometric.level h v in
    Alcotest.(check bool) "level within [0,63]" true (l >= 0 && l <= 63);
    if l <= 3 then count.(l) <- count.(l) + 1
  done;
  (* Pr[level = i] = 2^-(i+1). *)
  for i = 0 to 3 do
    let expected = 2.0 ** Float.of_int (-(i + 1)) in
    let got = Float.of_int count.(i) /. Float.of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "Pr[level = %d] ~ %.3f" i expected)
      true
      (Float.abs (got -. expected) < 0.015)
  done

(* --- Known answers ---

   Pinned outputs for edge-case keys, recorded from an independent
   implementation of each family (nested [int64] arrays, boxed int64
   arithmetic).  Every sketch, golden trace and eval artifact downstream
   is a function of these words, so a change of table layout, draw order,
   sign extension or finalizer shows up here first, by key. *)

let kat_keys = [ 0; 1; -1; 42; (1 lsl 32) + 7; max_int; min_int ]

let check_kat (type a) (ty : a Alcotest.testable) name (f : int -> a)
    (expected : a list) =
  List.iter2
    (fun k e -> Alcotest.check ty (Printf.sprintf "%s %d" name k) e (f k))
    kat_keys expected

(* The block kernel is the per-item [bits ~shift:0], on a slice at an
   offset, for both families; a slice off either array is rejected. *)
let test_bits_block () =
  let src = Array.init 700 (fun i -> (i * 2654435761) land max_int) in
  List.iter
    (fun (name, h, rejection) ->
      let dst = Array.make 300 (-1) in
      Universal.bits_block h ~shift:0 ~src ~pos:123 ~len:300 ~dst;
      Array.iteri
        (fun j w ->
          Alcotest.(check int)
            (Printf.sprintf "%s bits of src.(%d)" name (123 + j))
            (Universal.bits h ~shift:0 src.(123 + j))
            w)
        dst;
      List.iter
        (fun (pos, len) ->
          Alcotest.check_raises
            (Printf.sprintf "%s rejects pos %d len %d" name pos len)
            (Invalid_argument rejection)
            (fun () -> Universal.bits_block h ~shift:0 ~src ~pos ~len ~dst))
        [ (-1, 10); (0, -1); (500, 201); (0, 301) ])
    [
      ( "mixer",
        Universal.of_rng (Rng.create 21),
        "Splitmix.mix_bits_block: slice out of range" );
      ( "multiply-shift",
        Universal.multiply_shift (Rng.create 22),
        "Universal.bits_block: slice out of range" );
    ]

(* The mask test is the level test: [w] is below level [l] (fewer than
   [l] trailing zeros, 63 for 0) iff it has a set bit under the mask,
   for every [l] in [0, 63].  The words are random ones shifted to every
   level, and the edge words.  Past 63 the test is one-sided: every
   nonzero word reads below level 64, and 0 (level 63) does not. *)
let test_below_mask () =
  let rng = Rng.create 24 in
  let random =
    List.concat_map
      (fun _ ->
        let w = Int64.to_int (Rng.int64 rng) in
        List.init 63 (fun s -> w lsl s))
      (List.init 40 Fun.id)
  in
  let words = [ 0; 1; 2; 1 lsl 62; max_int; min_int; -1 ] @ random in
  List.iter
    (fun w ->
      let level = Geometric.trailing_zeros_int w in
      for l = 0 to 63 do
        if (level < l) <> (w land Geometric.below_mask l <> 0) then
          Alcotest.failf "word %#x (level %d) against level %d" w level l
      done;
      Alcotest.(check bool)
        (Printf.sprintf "word %#x below level 64" w)
        (w <> 0)
        (w land Geometric.below_mask 64 <> 0))
    words

(* The block hash is the per-key [pcsa], on a slice at an offset; a
   slice off either array is rejected. *)
let test_pcsa_block () =
  let h = Mixed_tabulation.create (Rng.create 23) in
  let src = Array.init 700 (fun i -> (i * 2654435761) lxor (i lsl 40)) in
  let dst = Array.make 300 (-1) in
  Mixed_tabulation.pcsa_block h ~src ~pos:123 ~len:300 ~dst;
  Array.iteri
    (fun j p ->
      Alcotest.(check int)
        (Printf.sprintf "pcsa of src.(%d)" (123 + j))
        (Mixed_tabulation.pcsa h src.(123 + j))
        p)
    dst;
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "rejects pos %d len %d" pos len)
        (Invalid_argument "Mixed_tabulation.pcsa_block: slice out of range")
        (fun () -> Mixed_tabulation.pcsa_block h ~src ~pos ~len ~dst))
    [ (-1, 10); (0, -1); (500, 201); (0, 301) ]

let test_kat_mixed_tabulation () =
  (* Seed 1 is the registry seed the end-to-end benchmark draws from. *)
  let h = Mixed_tabulation.create (Rng.create 1) in
  check_kat Alcotest.int64 "mt" (Mixed_tabulation.hash h)
    [
      0xbba2ea008a2d41f5L;
      0xba4e33a85e33108dL;
      0x9cfc794d9abf43ffL;
      0x6d3d5a6b5d8cbf63L;
      0xae9803826c6a24deL;
      0x93874a4e79c6a24bL;
      0x039ca1866ef07b1dL;
    ]

let test_kat_universal () =
  let mixer = Universal.of_rng (Rng.create 1)
  and ms = Universal.multiply_shift (Rng.create 1) in
  check_kat Alcotest.int64 "of_rng" (Universal.hash mixer)
    [
      0xc6d815c67805f9e4L;
      0x214fb7760dfbacc8L;
      0x103cca12f7e6245fL;
      0x8f7062cb46a23db4L;
      0xde3960eef2cf4ae1L;
      0xcac4803b0c32466fL;
      0xe30747015cc62d0aL;
    ];
  check_kat Alcotest.int64 "multiply_shift" (Universal.hash ms)
    [
      0x82f2aa475f552ce4L;
      0x60b581ba1f44ad15L;
      0xa52fd2d49f65acb3L;
      0xe4ea0325dca034e8L;
      0x93468e6c7ca485adL;
      0xa52fd2d45f65acb3L;
      0x82f2aa479f552ce4L;
    ];
  check_kat Alcotest.int "to_range of_rng 1000"
    (Universal.to_range mixer ~buckets:1000)
    [ 625; 306; 839; 301; 880; 715; 746 ];
  check_kat Alcotest.int "to_range multiply_shift 7"
    (Universal.to_range ms ~buckets:7)
    [ 1; 6; 2; 3; 6; 0; 3 ];
  check_kat Alcotest.int "level of_rng" (Geometric.level mixer)
    [ 2; 3; 0; 2; 0; 0; 1 ];
  check_kat Alcotest.int "level multiply_shift" (Geometric.level ms)
    [ 2; 0; 0; 3; 0; 0; 2 ]

(* --- Native entry points = their int64 definitions --- *)

(* Any native int, negative ones and both extremes included. *)
let any_int rng =
  match Rng.int rng 8 with
  | 0 -> max_int
  | 1 -> min_int
  | _ -> Int64.to_int (Rng.int64 rng)

let show_seed_key (seed, x) = Printf.sprintf "(seed %d, key %d)" seed x
let seed_key = Prop.pair (Prop.int_range 0 10_000) any_int

let window h ~shift x =
  Int64.to_int (Int64.shift_right_logical (Universal.hash h x) shift)

let prop_pcsa_is_hash_split =
  Prop.test_case ~show:show_seed_key ~name:"pcsa = split of hash"
    seed_key (fun (seed, x) ->
      let h = Mixed_tabulation.create (Rng.create seed) in
      let w = Mixed_tabulation.hash h x in
      let low = Int64.to_int (Int64.logand w 0xFFFF_FFFFL) in
      let level =
        if low = 0 then 32 else Geometric.trailing_zeros (Int64.of_int low)
      in
      let high = Int64.to_int (Int64.shift_right_logical w 32) in
      Mixed_tabulation.pcsa h x = (high lsl 6) lor level)

(* --- Mixed tabulation against its readable reference --- *)

(* The kernel as first written: table [i] holds words [256 i .. 256 i +
   255] of the flat buffer, in draw order (mix, derive, value), and a
   lookup scales the table number and the character at run time.
   [Mixed_tabulation] reads the same buffer through literal byte offsets
   and must compute the same bits. *)
module Reference_mt = struct
  let derived_chars = 4
  let mix_table = 0
  let derive_table = derived_chars
  let value_table = derived_chars + 8
  let words = 256 * (value_table + 8)

  let create rng =
    let b = Bytes.create (8 * words) in
    for w = 0 to words - 1 do
      Bytes.set_int64_ne b (8 * w) (Rng.int64 rng)
    done;
    b

  (* Character [i] of a key; [asr] sign-extends, so character 7 of a
     native int is the top byte of its [Int64.of_int]. *)
  let char x i = (x asr (8 * i)) land 0xFF
  let lookup t table c = Bytes.get_int64_ne t (8 * ((256 * table) + c))
  let value t x i = lookup t (value_table + i) (char x i)

  (* Only the low 32 bits of the derived word are read. *)
  let derive t x i = Int64.to_int (lookup t (derive_table + i) (char x i))
  let mix t d c = lookup t (mix_table + c) (char d c)

  let hash t x =
    let d =
      derive t x 0 lxor derive t x 1 lxor derive t x 2 lxor derive t x 3
      lxor derive t x 4 lxor derive t x 5 lxor derive t x 6 lxor derive t x 7
    in
    let v =
      Int64.logxor
        (Int64.logxor
           (Int64.logxor (value t x 0) (value t x 1))
           (Int64.logxor (value t x 2) (value t x 3)))
        (Int64.logxor
           (Int64.logxor (value t x 4) (value t x 5))
           (Int64.logxor (value t x 6) (value t x 7)))
    in
    Int64.logxor v
      (Int64.logxor
         (Int64.logxor (mix t d 0) (mix t d 1))
         (Int64.logxor (mix t d 2) (mix t d 3)))

  let pcsa t x =
    let h = hash t x in
    let low = Int64.to_int h land 0xFFFF_FFFF in
    let level = if low = 0 then 32 else Geometric.trailing_zeros_int low in
    (Int64.to_int (Int64.shift_right_logical h 32) lsl 6) lor level
end

(* A key whose 8 characters, as [Int64.of_int] has them, are all
   nonzero: the top byte keeps its sign bit equal to bit 62, which is
   what the native int can carry. *)
let all_chars_nonzero rng =
  let top =
    if Rng.bool rng then 1 + Rng.int rng 63 else 0xC0 + Rng.int rng 64
  in
  let w = ref top in
  for _ = 1 to 7 do
    w := (!w lsl 8) lor (1 + Rng.int rng 255)
  done;
  !w

(* Per case: a fresh table seed and 500 keys (the extremes, keys with
   every character nonzero, small stream-like keys and any native int),
   so the default 200 cases check 10^5 keys. *)
let mt_case rng =
  let seed = Prop.int_range 0 10_000 rng in
  let keys =
    Array.init 500 (fun i ->
        match i with
        | 0 -> 0
        | 1 -> -1
        | 2 -> max_int
        | 3 -> min_int
        | _ -> (
          match Rng.int rng 4 with
          | 0 -> all_chars_nonzero rng
          | 1 -> Rng.int rng 1_000_000
          | _ -> any_int rng))
  in
  (seed, keys)

let prop_mt_is_reference =
  Prop.test_case
    ~show:(fun (seed, keys) ->
      Printf.sprintf "(seed %d, keys %s)" seed
        (Prop.show_list Prop.show_int (Array.to_list keys)))
    ~name:"hash, pcsa = reference kernel" mt_case
    (fun (seed, keys) ->
      let h = Mixed_tabulation.create (Rng.create seed)
      and r = Reference_mt.create (Rng.create seed) in
      Array.for_all
        (fun x ->
          Int64.equal (Mixed_tabulation.hash h x) (Reference_mt.hash r x)
          && Mixed_tabulation.pcsa h x = Reference_mt.pcsa r x)
        keys)

let prop_bits_is_hash_window =
  Prop.test_case ~show:show_seed_key
    ~name:"bits, to_range, level = hash"
    seed_key (fun (seed, x) ->
      List.for_all
        (fun h ->
          let shifts_ok =
            List.for_all
              (fun shift -> Universal.bits h ~shift x = window h ~shift x)
              [ 0; 1; 2; 31; 32; 33; 62; 63 ]
          in
          let buckets = 1 + (seed mod 1000) in
          shifts_ok
          && Universal.to_range h ~buckets x = window h ~shift:2 x mod buckets
          && Geometric.level h x
             = min 63 (Geometric.trailing_zeros (Universal.hash h x)))
        [
          Universal.of_rng (Rng.create seed);
          Universal.multiply_shift (Rng.create seed);
          Universal.create ~seed:(Int64.of_int seed);
        ])

let prop_trailing_zeros_int =
  Prop.test_case ~show:string_of_int ~name:"trailing_zeros_int = int64 count"
    (fun rng ->
      (* Words with long runs of low zeros, and zero itself. *)
      let w = any_int rng in
      if Rng.bool rng then w else w lsl Rng.int rng 63)
    (fun w ->
      Geometric.trailing_zeros_int w
      = min 63 (Geometric.trailing_zeros (Int64.of_int w)))

let prop_mix_bits_is_mix_window =
  Prop.test_case ~show:show_seed_key ~name:"mix_bits = mix window"
    seed_key (fun (seed, x) ->
      let premixed = Splitmix.mix (Int64.of_int seed) in
      List.for_all
        (fun shift ->
          Splitmix.mix_bits ~premixed ~shift x
          = Int64.to_int
              (Int64.shift_right_logical
                 (Splitmix.mix (Int64.add premixed (Int64.of_int x)))
                 shift))
        [ 0; 2; 32; 63 ])

(* --- QCheck properties --- *)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset"
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let b = Array.copy a in
      Rng.shuffle_in_place (Rng.create seed) b;
      List.sort compare (Array.to_list a)
      = List.sort compare (Array.to_list b))

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Rng.create seed in
      let v = Rng.int g bound in
      v >= 0 && v < bound)

let prop_mix_injective_on_small_domain =
  QCheck.Test.make ~name:"mix has no collisions on small domains"
    QCheck.(int_range 0 10_000)
    (fun base ->
      let seen = Hashtbl.create 256 in
      let ok = ref true in
      for v = base to base + 100 do
        let h = Splitmix.mix (Int64.of_int v) in
        if Hashtbl.mem seen h then ok := false;
        Hashtbl.replace seen h ()
      done;
      !ok)

let () =
  ignore check_float;
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_shuffle_is_permutation;
        prop_rng_int_in_bounds;
        prop_mix_injective_on_small_domain;
      ]
  in
  Alcotest.run "hashing"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_mix_deterministic;
          Alcotest.test_case "avalanche" `Quick test_mix_avalanche;
          Alcotest.test_case "generator streams" `Quick test_generator_streams;
          Alcotest.test_case "state roundtrip" `Quick test_state_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "geometric level" `Quick test_geometric_level_distribution;
        ] );
      ( "hash families",
        [
          Alcotest.test_case "universal deterministic" `Quick test_universal_deterministic;
          Alcotest.test_case "universal seeds differ" `Quick test_universal_seeds_differ;
          Alcotest.test_case "to_range" `Quick test_to_range;
          Alcotest.test_case "multiply-shift spread" `Quick test_multiply_shift_spread;
          Alcotest.test_case "tabulation spread" `Quick test_tabulation_spread;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "trailing zeros" `Quick test_trailing_zeros;
          Alcotest.test_case "level distribution" `Quick test_geometric_level_of_hash;
          Alcotest.test_case "bits_block = bits" `Quick test_bits_block;
          Alcotest.test_case "below_mask = level test" `Quick test_below_mask;
          Alcotest.test_case "pcsa_block = pcsa" `Quick test_pcsa_block;
        ] );
      ( "known answers",
        [
          Alcotest.test_case "mixed tabulation seed 1" `Quick
            test_kat_mixed_tabulation;
          Alcotest.test_case "universal, to_range, level" `Quick
            test_kat_universal;
        ] );
      ( "native ints",
        [
          prop_pcsa_is_hash_split;
          prop_mt_is_reference;
          prop_bits_is_hash_window;
          prop_mix_bits_is_mix_window;
          prop_trailing_zeros_int;
        ] );
      ("properties", qsuite);
    ]
