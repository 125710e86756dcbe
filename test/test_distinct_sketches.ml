(* Tests for the alternative distinct sketches (BJKST, HyperLogLog) and
   their conformance to the shared DISTINCT_SKETCH behaviour. *)

module Rng = Wd_hashing.Rng
module Bjkst = Wd_sketch.Bjkst
module Hll = Wd_sketch.Hyperloglog

let fill_b sk lo hi =
  for v = lo to hi - 1 do
    ignore (Bjkst.add sk v : bool)
  done

let fill_h sk lo hi =
  for v = lo to hi - 1 do
    ignore (Hll.add sk v : bool)
  done

(* --- BJKST --- *)

let test_bjkst_small_exact () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 31) ~k:256 in
  let sk = Bjkst.create fam in
  fill_b sk 0 100;
  (* Below k, the summary stores every distinct hash: exact. *)
  Alcotest.(check (float 0.001)) "exact below k" 100.0 (Bjkst.estimate sk)

let test_bjkst_accuracy () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 32) ~k:1024 in
  List.iter
    (fun n ->
      let sk = Bjkst.create fam in
      fill_b sk 0 n;
      let est = Bjkst.estimate sk in
      let rel = Float.abs (est -. Float.of_int n) /. Float.of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d est=%.0f rel=%.3f" n est rel)
        true (rel < 0.15))
    [ 5_000; 50_000 ]

let test_bjkst_duplicates () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 33) ~k:64 in
  let once = Bjkst.create fam and many = Bjkst.create fam in
  fill_b once 0 1_000;
  for _ = 1 to 4 do
    fill_b many 0 1_000
  done;
  Alcotest.(check bool) "duplicate insensitive" true (Bjkst.equal once many)

let test_bjkst_merge_union () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 34) ~k:64 in
  let a = Bjkst.create fam and b = Bjkst.create fam and u = Bjkst.create fam in
  fill_b a 0 500;
  fill_b b 300 900;
  fill_b u 0 900;
  Bjkst.merge_into ~dst:a b;
  Alcotest.(check bool) "merge equals union" true (Bjkst.equal a u);
  Alcotest.(check (float 0.001)) "same estimate" (Bjkst.estimate u)
    (Bjkst.estimate a)

let test_bjkst_size_bytes () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 35) ~k:64 in
  let sk = Bjkst.create fam in
  Alcotest.(check int) "empty is free" 0 (Bjkst.size_bytes sk);
  fill_b sk 0 10;
  Alcotest.(check int) "8 bytes per stored value" 80 (Bjkst.size_bytes sk);
  fill_b sk 0 1_000;
  Alcotest.(check int) "capped at 8k" (8 * 64) (Bjkst.size_bytes sk)

let test_bjkst_add_changed () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 36) ~k:8 in
  let sk = Bjkst.create fam in
  Alcotest.(check bool) "first add changes" true (Bjkst.add sk 5);
  Alcotest.(check bool) "repeat add does not" false (Bjkst.add sk 5)

(* --- HyperLogLog --- *)

let test_hll_accuracy () =
  let fam = Hll.family_custom ~rng:(Rng.create 41) ~registers:1024 in
  List.iter
    (fun n ->
      let sk = Hll.create fam in
      fill_h sk 0 n;
      let est = Hll.estimate sk in
      let rel = Float.abs (est -. Float.of_int n) /. Float.of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d est=%.0f rel=%.3f" n est rel)
        true (rel < 0.15))
    [ 100; 5_000; 100_000 ]

let test_hll_duplicates () =
  let fam = Hll.family_custom ~rng:(Rng.create 42) ~registers:64 in
  let once = Hll.create fam and many = Hll.create fam in
  fill_h once 0 1_000;
  for _ = 1 to 4 do
    fill_h many 0 1_000
  done;
  Alcotest.(check bool) "duplicate insensitive" true (Hll.equal once many)

let test_hll_merge_union () =
  let fam = Hll.family_custom ~rng:(Rng.create 43) ~registers:64 in
  let a = Hll.create fam and b = Hll.create fam and u = Hll.create fam in
  fill_h a 0 500;
  fill_h b 300 900;
  fill_h u 0 900;
  Hll.merge_into ~dst:a b;
  Alcotest.(check bool) "merge equals union" true (Hll.equal a u)

let test_hll_size_bytes () =
  let fam = Hll.family_custom ~rng:(Rng.create 44) ~registers:256 in
  Alcotest.(check int) "1 byte per register" 256 (Hll.size_bytes (Hll.create fam))

let test_hll_register_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument
       "Hyperloglog.family_custom: registers must be a power of two >= 16")
    (fun () ->
      ignore (Hll.family_custom ~rng:(Rng.create 1) ~registers:100 : Hll.family))

let test_hll_family_sizing () =
  let fam = Hll.family ~rng:(Rng.create 45) ~accuracy:0.05 ~confidence:0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "registers=%d for 5%%" (Hll.registers fam))
    true
    (Hll.registers fam >= 433)

(* The bias constant at and below the constructible minimum of 16
   registers: small m must clamp to the m=16 constant, never extrapolate
   the asymptotic formula downward. *)
let test_hll_alpha_boundary () =
  let check name expected got =
    Alcotest.(check (float 1e-12)) name expected got
  in
  check "alpha 16" 0.673 (Hll.alpha 16);
  check "alpha 8 clamps to m=16 constant" 0.673 (Hll.alpha 8);
  check "alpha 1 clamps to m=16 constant" 0.673 (Hll.alpha 1);
  check "alpha 32" 0.697 (Hll.alpha 32);
  check "alpha 64" 0.709 (Hll.alpha 64);
  check "alpha 128 asymptotic" (0.7213 /. (1.0 +. (1.079 /. 128.0)))
    (Hll.alpha 128);
  (* No family can be built below the clamp point, so the clamp is the
     only path that can ever see m < 16. *)
  Alcotest.check_raises "registers 8 rejected"
    (Invalid_argument
       "Hyperloglog.family_custom: registers must be a power of two >= 16")
    (fun () ->
      ignore (Hll.family_custom ~rng:(Rng.create 1) ~registers:8 : Hll.family));
  let loosest = Hll.family ~rng:(Rng.create 46) ~accuracy:0.99 ~confidence:0.01 in
  Alcotest.(check bool)
    "sized family never below 16" true
    (Hll.registers loosest >= 16)

(* --- Cross-sketch conformance through the functor interface --- *)

module Conformance (S : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) = struct
  let run () =
    let fam = S.family ~rng:(Rng.create 55) ~accuracy:0.1 ~confidence:0.9 in
    let a = S.create fam and b = S.create fam in
    for v = 0 to 999 do
      ignore (S.add a v : bool)
    done;
    for v = 500 to 1_499 do
      ignore (S.add b v : bool)
    done;
    S.merge_into ~dst:a b;
    let est = S.estimate a in
    let rel = Float.abs (est -. 1_500.0) /. 1_500.0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s merged estimate %.0f within 30%%" S.name est)
      true (rel < 0.30);
    Alcotest.(check bool)
      (Printf.sprintf "%s has positive wire size" S.name)
      true
      (S.size_bytes a > 0);
    (* [keys] checks its slice like the other block kernels. *)
    let src = Array.init 700 Fun.id and dst = Array.make 300 0 in
    List.iter
      (fun (pos, len) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s keys rejects pos %d len %d" S.name pos len)
          true
          (match S.keys fam ~src ~pos ~len ~dst with
          | () -> false
          | exception Invalid_argument _ -> true))
      [ (-1, 10); (0, -1); (500, 201); (0, 301) ]
end

module Fm_conf = Conformance (Wd_sketch.Fm)
module Bjkst_conf = Conformance (Wd_sketch.Bjkst)
module Hll_conf = Conformance (Wd_sketch.Hyperloglog)
module Fmc_conf = Conformance (Wd_sketch.Fm_concentrated)
module Fanout_conf = Conformance (Wd_view.Fanout_sketch)

(* --- QCheck: BJKST/HLL merge = direct insertion --- *)

let stream_gen = QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 5_000))

let prop_bjkst_merge_direct =
  QCheck.Test.make ~name:"bjkst merge = direct insertion"
    QCheck.(pair stream_gen stream_gen)
    (fun (xs, ys) ->
      let fam = Bjkst.family_custom ~rng:(Rng.create 66) ~k:32 in
      let a = Bjkst.create fam and b = Bjkst.create fam and d = Bjkst.create fam in
      List.iter (fun v -> ignore (Bjkst.add a v : bool)) xs;
      List.iter (fun v -> ignore (Bjkst.add b v : bool)) ys;
      List.iter (fun v -> ignore (Bjkst.add d v : bool)) (xs @ ys);
      Bjkst.merge_into ~dst:a b;
      Bjkst.equal a d)

let prop_hll_merge_direct =
  QCheck.Test.make ~name:"hll merge = direct insertion"
    QCheck.(pair stream_gen stream_gen)
    (fun (xs, ys) ->
      let fam = Hll.family_custom ~rng:(Rng.create 67) ~registers:16 in
      let a = Hll.create fam and b = Hll.create fam and d = Hll.create fam in
      List.iter (fun v -> ignore (Hll.add a v : bool)) xs;
      List.iter (fun v -> ignore (Hll.add b v : bool)) ys;
      List.iter (fun v -> ignore (Hll.add d v : bool)) (xs @ ys);
      Hll.merge_into ~dst:a b;
      Hll.equal a d)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_bjkst_merge_direct; prop_hll_merge_direct ]
  in
  Alcotest.run "distinct-sketches"
    [
      ( "bjkst",
        [
          Alcotest.test_case "small exact" `Quick test_bjkst_small_exact;
          Alcotest.test_case "accuracy" `Quick test_bjkst_accuracy;
          Alcotest.test_case "duplicates" `Quick test_bjkst_duplicates;
          Alcotest.test_case "merge union" `Quick test_bjkst_merge_union;
          Alcotest.test_case "size bytes" `Quick test_bjkst_size_bytes;
          Alcotest.test_case "add changed" `Quick test_bjkst_add_changed;
        ] );
      ( "hyperloglog",
        [
          Alcotest.test_case "accuracy" `Quick test_hll_accuracy;
          Alcotest.test_case "duplicates" `Quick test_hll_duplicates;
          Alcotest.test_case "merge union" `Quick test_hll_merge_union;
          Alcotest.test_case "size bytes" `Quick test_hll_size_bytes;
          Alcotest.test_case "register validation" `Quick
            test_hll_register_validation;
          Alcotest.test_case "family sizing" `Quick test_hll_family_sizing;
          Alcotest.test_case "alpha boundary" `Quick test_hll_alpha_boundary;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "fm" `Quick Fm_conf.run;
          Alcotest.test_case "bjkst" `Quick Bjkst_conf.run;
          Alcotest.test_case "hll" `Quick Hll_conf.run;
          Alcotest.test_case "fmc" `Quick Fmc_conf.run;
          Alcotest.test_case "fanout" `Quick Fanout_conf.run;
        ] );
      ("properties", qsuite);
    ]
