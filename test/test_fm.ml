(* Unit and property tests for the Flajolet-Martin sketches. *)

module Rng = Wd_hashing.Rng
module Fm_bitmap = Wd_sketch.Fm_bitmap
module Fm = Wd_sketch.Fm

(* --- Single bitmap --- *)

let test_bitmap_empty () =
  let b = Fm_bitmap.create () in
  Alcotest.(check bool) "empty" true (Fm_bitmap.is_empty b);
  Alcotest.(check int) "lowest zero of empty" 0 (Fm_bitmap.lowest_zero b);
  Alcotest.(check (float 0.001)) "estimate of empty" (1.0 /. Fm_bitmap.phi)
    (Fm_bitmap.estimate b)

let test_bitmap_add_levels () =
  let b = Fm_bitmap.create () in
  Alcotest.(check bool) "level 0 fresh" true (Fm_bitmap.add_level b 0);
  Alcotest.(check bool) "level 0 repeat" false (Fm_bitmap.add_level b 0);
  Alcotest.(check int) "lowest zero after 0" 1 (Fm_bitmap.lowest_zero b);
  ignore (Fm_bitmap.add_level b 1 : bool);
  ignore (Fm_bitmap.add_level b 2 : bool);
  Alcotest.(check int) "lowest zero after 0,1,2" 3 (Fm_bitmap.lowest_zero b)

let test_bitmap_add_level_rejects_out_of_range () =
  let b = Fm_bitmap.create () in
  Alcotest.check_raises "negative level"
    (Invalid_argument "Fm_bitmap.add_level: level out of range") (fun () ->
      ignore (Fm_bitmap.add_level b (-1) : bool));
  Alcotest.check_raises "level 64"
    (Invalid_argument "Fm_bitmap.add_level: level out of range") (fun () ->
      ignore (Fm_bitmap.add_level b 64 : bool))

let test_bitmap_merge_is_or () =
  let a = Fm_bitmap.create () and b = Fm_bitmap.create () in
  ignore (Fm_bitmap.add_level a 0 : bool);
  ignore (Fm_bitmap.add_level a 3 : bool);
  ignore (Fm_bitmap.add_level b 1 : bool);
  Fm_bitmap.merge_into ~dst:a b;
  Alcotest.(check int64) "bits are OR" 0b1011L (Fm_bitmap.bits a)

let test_bitmap_copy_independent () =
  let a = Fm_bitmap.create () in
  ignore (Fm_bitmap.add_level a 2 : bool);
  let b = Fm_bitmap.copy a in
  ignore (Fm_bitmap.add_level b 5 : bool);
  Alcotest.(check bool) "copy diverges" false (Fm_bitmap.equal a b)

let test_bitmap_roundtrip () =
  let a = Fm_bitmap.of_bits 0xDEADBEEFL in
  Alcotest.(check int64) "of_bits/bits roundtrip" 0xDEADBEEFL (Fm_bitmap.bits a)

(* [missing] on the native halves = a popcount over the int64 [bits]. *)
let prop_bitmap_missing =
  let show (a, b) = Printf.sprintf "(0x%Lx, 0x%Lx)" a b in
  let word rng = Wd_hashing.Rng.int64 rng in
  Prop.test_case ~show ~name:"missing = popcount of bits" (Prop.pair word word)
    (fun (a, b) ->
      let popcount w =
        let n = ref 0 in
        for i = 0 to 63 do
          if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then incr n
        done;
        !n
      in
      Fm_bitmap.missing ~from:(Fm_bitmap.of_bits a) (Fm_bitmap.of_bits b)
      = popcount (Int64.logand b (Int64.lognot a)))

(* --- Multi-bitmap sketch --- *)

let mk_family ?(seed = 21) ?(variant = Fm.Stochastic) ?(bitmaps = 64) () =
  Fm.family_custom ~rng:(Rng.create seed) ~variant ~bitmaps

let fill sk lo hi =
  for v = lo to hi - 1 do
    ignore (Fm.add sk v : bool)
  done

let test_fm_estimate_accuracy variant () =
  (* With m = 256 bitmaps the standard error is ~5%; allow 20%. *)
  let fam = mk_family ~variant ~bitmaps:256 () in
  List.iter
    (fun n ->
      let sk = Fm.create fam in
      fill sk 0 n;
      let est = Fm.estimate sk in
      let rel = Float.abs (est -. Float.of_int n) /. Float.of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d est=%.0f rel=%.3f" n est rel)
        true (rel < 0.20))
    [ 2_000; 20_000; 100_000 ]

let test_fm_duplicates_ignored () =
  let fam = mk_family () in
  let once = Fm.create fam and thrice = Fm.create fam in
  fill once 0 5_000;
  for _ = 1 to 3 do
    fill thrice 0 5_000
  done;
  Alcotest.(check bool) "duplicated stream gives identical sketch" true
    (Fm.equal once thrice)

let test_fm_merge_union () =
  let fam = mk_family () in
  let a = Fm.create fam and b = Fm.create fam and u = Fm.create fam in
  fill a 0 3_000;
  fill b 2_000 6_000;
  fill u 0 6_000;
  Fm.merge_into ~dst:a b;
  Alcotest.(check bool) "merge equals union sketch" true (Fm.equal a u)

let test_fm_estimate_monotone_under_merge () =
  let fam = mk_family ~bitmaps:32 () in
  let a = Fm.create fam and b = Fm.create fam in
  fill a 0 1_000;
  fill b 5_000 7_000;
  let before = Fm.estimate a in
  Fm.merge_into ~dst:a b;
  Alcotest.(check bool) "estimate grows under merge" true
    (Fm.estimate a >= before)

let test_fm_size_bytes () =
  let fam = mk_family ~bitmaps:40 () in
  Alcotest.(check int) "8 bytes per bitmap" 320 (Fm.size_bytes (Fm.create fam))

let test_fm_family_sizing () =
  let fam = Fm.family ~rng:(Rng.create 1) ~accuracy:0.1 ~confidence:0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "m=%d large enough for 10%%" (Fm.bitmaps fam))
    true
    (Fm.bitmaps fam >= 60);
  Alcotest.check_raises "accuracy >= 1 rejected"
    (Invalid_argument "Fm.family: accuracy must be in (0,1)") (fun () ->
      ignore
        (Fm.family ~rng:(Rng.create 1) ~accuracy:1.5 ~confidence:0.9
          : Fm.family))

let test_fm_copy_independent () =
  let fam = mk_family () in
  let a = Fm.create fam in
  fill a 0 100;
  let b = Fm.copy a in
  fill b 100 200;
  Alcotest.(check bool) "copy diverges" false (Fm.equal a b)

let test_fm_averaged_small_counts () =
  (* The averaged variant should track tiny cardinalities loosely but
     monotonically. *)
  let fam = mk_family ~variant:Fm.Averaged ~bitmaps:64 () in
  let sk = Fm.create fam in
  let prev = ref (Fm.estimate sk) in
  for v = 0 to 63 do
    ignore (Fm.add sk v : bool);
    let e = Fm.estimate sk in
    Alcotest.(check bool) "monotone" true (e >= !prev -. 1e-9);
    prev := e
  done

let test_fm_small_range_correction () =
  (* Stochastic estimates must not have a floor of ~1.3 m at small n. *)
  let fam = mk_family ~variant:Fm.Stochastic ~bitmaps:128 () in
  let sk = Fm.create fam in
  fill sk 0 20;
  let est = Fm.estimate sk in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f close to 20" est)
    true
    (est > 5.0 && est < 60.0)

let test_fm_delta_bytes () =
  let fam = mk_family ~bitmaps:16 () in
  let a = Fm.create fam and b = Fm.create fam in
  fill a 0 100;
  fill b 0 100;
  Alcotest.(check int) "identical -> zero delta" 0 (Fm.delta_bytes ~from:a b);
  fill b 100 200;
  let d = Fm.delta_bytes ~from:a b in
  Alcotest.(check bool)
    (Printf.sprintf "delta %d positive and cheaper than full" d)
    true
    (d > 0 && d <= Fm.size_bytes b);
  Alcotest.(check int) "subset direction still zero" 0
    (Fm.delta_bytes ~from:b a)

(* --- QCheck properties --- *)

let stream_gen = QCheck.(list_of_size (Gen.int_range 0 300) (int_range 0 10_000))

let prop_merge_commutes =
  QCheck.Test.make ~name:"merge commutes (same final sketch)"
    QCheck.(pair stream_gen stream_gen)
    (fun (xs, ys) ->
      let fam = mk_family ~bitmaps:16 () in
      let ab = Fm.create fam and ba = Fm.create fam in
      let a = Fm.create fam and b = Fm.create fam in
      List.iter (fun v -> ignore (Fm.add a v : bool)) xs;
      List.iter (fun v -> ignore (Fm.add b v : bool)) ys;
      Fm.merge_into ~dst:ab a;
      Fm.merge_into ~dst:ab b;
      Fm.merge_into ~dst:ba b;
      Fm.merge_into ~dst:ba a;
      Fm.equal ab ba)

let prop_merge_equals_direct_insertion =
  QCheck.Test.make ~name:"merged sketch = sketch of concatenated stream"
    QCheck.(pair stream_gen stream_gen)
    (fun (xs, ys) ->
      let fam = mk_family ~bitmaps:16 () in
      let a = Fm.create fam and b = Fm.create fam and d = Fm.create fam in
      List.iter (fun v -> ignore (Fm.add a v : bool)) xs;
      List.iter (fun v -> ignore (Fm.add b v : bool)) ys;
      List.iter (fun v -> ignore (Fm.add d v : bool)) (xs @ ys);
      Fm.merge_into ~dst:a b;
      Fm.equal a d)

let prop_add_changed_tracks_equality =
  QCheck.Test.make ~name:"add returns true iff the sketch changed"
    QCheck.(pair stream_gen (int_range 0 10_000))
    (fun (xs, v) ->
      let fam = mk_family ~bitmaps:8 () in
      let sk = Fm.create fam in
      List.iter (fun x -> ignore (Fm.add sk x : bool)) xs;
      let before = Fm.copy sk in
      let changed = Fm.add sk v in
      changed = not (Fm.equal before sk))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_merge_commutes;
        prop_merge_equals_direct_insertion;
        prop_add_changed_tracks_equality;
      ]
  in
  Alcotest.run "fm"
    [
      ( "bitmap",
        [
          Alcotest.test_case "empty" `Quick test_bitmap_empty;
          Alcotest.test_case "add levels" `Quick test_bitmap_add_levels;
          Alcotest.test_case "level range" `Quick
            test_bitmap_add_level_rejects_out_of_range;
          Alcotest.test_case "merge is OR" `Quick test_bitmap_merge_is_or;
          Alcotest.test_case "copy independent" `Quick
            test_bitmap_copy_independent;
          Alcotest.test_case "bits roundtrip" `Quick test_bitmap_roundtrip;
          prop_bitmap_missing;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "accuracy (stochastic)" `Quick
            (test_fm_estimate_accuracy Fm.Stochastic);
          Alcotest.test_case "accuracy (averaged)" `Slow
            (test_fm_estimate_accuracy Fm.Averaged);
          Alcotest.test_case "duplicates ignored" `Quick
            test_fm_duplicates_ignored;
          Alcotest.test_case "merge union" `Quick test_fm_merge_union;
          Alcotest.test_case "monotone merge" `Quick
            test_fm_estimate_monotone_under_merge;
          Alcotest.test_case "size bytes" `Quick test_fm_size_bytes;
          Alcotest.test_case "family sizing" `Quick test_fm_family_sizing;
          Alcotest.test_case "copy independent" `Quick test_fm_copy_independent;
          Alcotest.test_case "averaged small counts" `Quick
            test_fm_averaged_small_counts;
          Alcotest.test_case "small-range correction" `Quick
            test_fm_small_range_correction;
          Alcotest.test_case "delta bytes" `Quick test_fm_delta_bytes;
        ] );
      ("properties", qsuite);
    ]
