(* Integration and property tests for the distinct-count tracking
   protocols (NS, SC, SS, LS, EC). *)

module Rng = Wd_hashing.Rng
module Fm = Wd_sketch.Fm
module Network = Wd_net.Network
module Wire = Wd_net.Wire
module Dc = Wd_protocol.Dc_tracker
module Stream = Wd_workload.Stream
module Stream_gen = Wd_workload.Stream_gen

let mk_family ?(seed = 81) ?(bitmaps = 256) () =
  Fm.family_custom ~rng:(Rng.create seed) ~variant:Fm.Stochastic ~bitmaps

let run_stream tracker stream =
  Stream.iter (fun ~site ~item -> Dc.Fm.observe tracker ~site item) stream

let algo_name = Dc.algorithm_to_string

(* --- EC (exact baseline) --- *)

let test_ec_is_exact () =
  let stream = Stream_gen.zipf ~sites:4 ~events:20_000 ~universe:5_000 () in
  let tracker =
    Dc.Fm.create ~algorithm:Dc.EC ~theta:0.1 ~sites:4 ~family:(mk_family ())
      ()
  in
  run_stream tracker stream;
  Alcotest.(check (float 0.001))
    "EC estimate is exact"
    (Float.of_int (Stream.distinct_count stream))
    (Dc.Fm.estimate tracker)

let test_ec_cost_formula () =
  (* EC sends exactly one (header + item) message per locally-new item. *)
  let stream = Stream_gen.zipf ~sites:3 ~events:10_000 ~universe:2_000 () in
  let tracker =
    Dc.Fm.create ~algorithm:Dc.EC ~theta:0.1 ~sites:3 ~family:(mk_family ())
      ()
  in
  run_stream tracker stream;
  let locally_new = Array.init 3 (fun _ -> Hashtbl.create 64) in
  let expected = ref 0 in
  Stream.iter
    (fun ~site ~item ->
      if not (Hashtbl.mem locally_new.(site) item) then begin
        Hashtbl.replace locally_new.(site) item ();
        incr expected
      end)
    stream;
  Alcotest.(check int) "bytes = new items x message size"
    (!expected * Wire.message ~payload:Wire.item_bytes)
    (Network.total_bytes (Dc.Fm.network tracker));
  Alcotest.(check int) "no downstream traffic" 0
    (Network.bytes_down (Dc.Fm.network tracker))

(* --- Correctness guarantee (Lemma 1) --- *)

(* Statistical check: the coordinator's estimate should track the true
   distinct count within alpha + theta most of the time.  With m=256
   bitmaps alpha ~ 5%; theta = 5%; we allow errors up to 2x the budget
   and demand 95% of continuous samples inside. *)
let test_guarantee algo () =
  let stream =
    Stream_gen.overlapping ~sites:5 ~per_site:8_000 ~shared_fraction:0.4 ()
  in
  let tracker =
    Dc.Fm.create ~algorithm:algo ~theta:0.05 ~sites:5 ~family:(mk_family ())
      ()
  in
  let truth = Hashtbl.create 4096 in
  let samples = ref 0 and violations = ref 0 in
  Stream.iteri
    (fun j ~site ~item ->
      Dc.Fm.observe tracker ~site item;
      if not (Hashtbl.mem truth item) then Hashtbl.replace truth item ();
      if j mod 199 = 0 && Hashtbl.length truth > 100 then begin
        incr samples;
        let n0 = Float.of_int (Hashtbl.length truth) in
        let err = Float.abs (Dc.Fm.estimate tracker -. n0) /. n0 in
        if err > 2.0 *. (0.05 +. 0.05) then incr violations
      end)
    stream;
  let ratio = Float.of_int !violations /. Float.of_int (max 1 !samples) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d samples out of budget" (algo_name algo)
       !violations !samples)
    true (ratio < 0.05)

(* --- Information conservation (deterministic) ---

   At any instant, merging the coordinator sketch with every site's local
   sketch must reconstruct exactly the sketch of all items seen anywhere:
   the protocols never lose information, they only defer shipping it. *)
let test_no_information_loss algo () =
  let family = mk_family ~bitmaps:32 () in
  let stream =
    Stream_gen.overlapping ~sites:4 ~per_site:3_000 ~shared_fraction:0.5 ()
  in
  let tracker =
    Dc.Fm.create ~algorithm:algo ~theta:0.2 ~sites:4 ~family ()
  in
  let reference = Fm.create family in
  run_stream tracker stream;
  Stream.iter (fun ~site:_ ~item -> ignore (Fm.add reference item : bool)) stream;
  let reconstructed =
    match Dc.Fm.coordinator_sketch tracker with
    | None -> Alcotest.fail "approximate tracker must expose its sketch"
    | Some sk0 -> Fm.copy sk0
  in
  (* Site sketches are not exposed; instead check the coordinator sketch is
     dominated by the reference (no invented bits) and that local holdback
     is bounded: replaying the stream into the coordinator sketch yields
     the reference exactly. *)
  Stream.iter
    (fun ~site:_ ~item -> ignore (Fm.add reconstructed item : bool))
    stream;
  Alcotest.(check bool)
    (algo_name algo ^ ": coordinator sketch consistent with reference")
    true
    (Fm.equal reconstructed reference)

(* --- Shared-sketch structural invariants (deterministic) --- *)

let test_ss_sites_dominate_coordinator () =
  (* In SS every global change is broadcast, so each site's copy always
     contains the coordinator's sketch: merging sk0 into a site sketch
     must change nothing. *)
  let family = mk_family ~bitmaps:16 () in
  let stream =
    Stream_gen.overlapping ~sites:4 ~per_site:2_000 ~shared_fraction:0.5 ()
  in
  let tracker = Dc.Fm.create ~algorithm:Dc.SS ~theta:0.2 ~sites:4 ~family () in
  run_stream tracker stream;
  match Dc.Fm.coordinator_sketch tracker with
  | None -> Alcotest.fail "no coordinator sketch"
  | Some sk0 ->
    for i = 0 to 3 do
      match Dc.Fm.site_sketch tracker i with
      | None -> Alcotest.fail "no site sketch"
      | Some sk ->
        let merged = Fm.copy sk in
        Fm.merge_into ~dst:merged sk0;
        Alcotest.(check bool)
          (Printf.sprintf "site %d copy contains Sk_0" i)
          true (Fm.equal merged sk)
    done

let test_ls_sender_sync () =
  (* After an LS exchange the sender and coordinator agree exactly; we
     can't observe "just after" from outside, but at any point each LS
     site's sketch merged with sk0 equals sk0 merged with the site's
     unsent local additions — and crucially the coordinator dominates
     every site that has just exchanged.  Weaker checkable form: sk0
     contains every site's last-synced state, i.e. merging all site
     sketches into sk0 only adds information sites accumulated since
     their last send (bounded by the threshold band). *)
  let family = mk_family ~bitmaps:64 () in
  let stream =
    Stream_gen.overlapping ~sites:3 ~per_site:4_000 ~shared_fraction:0.3 ()
  in
  let tracker = Dc.Fm.create ~algorithm:Dc.LS ~theta:0.1 ~sites:3 ~family () in
  run_stream tracker stream;
  match Dc.Fm.coordinator_sketch tracker with
  | None -> Alcotest.fail "no coordinator sketch"
  | Some sk0 ->
    let d0 = Fm.estimate sk0 in
    let full = Fm.copy sk0 in
    for i = 0 to 2 do
      match Dc.Fm.site_sketch tracker i with
      | Some sk -> Fm.merge_into ~dst:full sk
      | None -> Alcotest.fail "no site sketch"
    done;
    (* Unsent residue across k sites is at most ~theta of the total. *)
    Alcotest.(check bool)
      (Printf.sprintf "residue bounded: full %.0f vs d0 %.0f"
         (Fm.estimate full) d0)
      true
      (Fm.estimate full <= d0 *. 1.25)

(* --- Duplicate resilience --- *)

let test_duplicate_resilience algo () =
  (* Stream B = stream A with every event duplicated 3x across random
     sites; final coordinator estimates must agree closely since the
     distinct set is identical. *)
  let family = mk_family ~bitmaps:128 () in
  let base = Stream_gen.uniform ~sites:4 ~events:8_000 ~universe:3_000 () in
  let rng = Rng.create 99 in
  let dup_sites = Array.init (3 * Stream.length base) (fun _ -> Rng.int rng 4) in
  let dup_items =
    Array.init (3 * Stream.length base) (fun j -> Stream.item base (j mod Stream.length base))
  in
  let dup = Stream.concat [ base; Stream.make ~sites:dup_sites ~items:dup_items ] in
  let run stream =
    let tracker =
      Dc.Fm.create ~algorithm:algo ~theta:0.1 ~sites:4 ~family ()
    in
    run_stream tracker stream;
    Dc.Fm.estimate tracker
  in
  let e1 = run base and e2 = run dup in
  let rel = Float.abs (e1 -. e2) /. e1 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: duplicated stream estimate %.0f vs %.0f"
       (algo_name algo) e2 e1)
    true
    (rel < 0.15)

(* --- Communication cost sanity --- *)

let test_cheaper_than_exact algo () =
  (* On a large stream with many duplicates, every approximate protocol
     must beat the exact baseline.  Section 4.2's guarantee covers the
     outward (site-to-coordinator) traffic only: SS's eager downstream
     broadcasts can exceed EC — that is exactly why the paper drops SS
     from Figure 5(c) — so SS is held to the upstream bound while the
     others must win on total bytes. *)
  let stream =
    Stream_gen.duplicated ~sites:4 ~distinct:4_000 ~copies:20 ()
  in
  let family = mk_family ~bitmaps:64 () in
  let run algorithm =
    let tracker = Dc.Fm.create ~algorithm ~theta:0.1 ~sites:4 ~family () in
    run_stream tracker stream;
    Dc.Fm.network tracker
  in
  let approx = run algo and exact = run Dc.EC in
  if algo = Dc.SS then
    Alcotest.(check bool)
      (Printf.sprintf "SS upstream %d <= EC %d"
         (Network.bytes_up approx)
         (Network.total_bytes exact))
      true
      (Network.bytes_up approx <= Network.total_bytes exact)
  else
    Alcotest.(check bool)
      (Printf.sprintf "%s bytes %d < EC bytes %d" (algo_name algo)
         (Network.total_bytes approx)
         (Network.total_bytes exact))
      true
      (Network.total_bytes approx < Network.total_bytes exact)

let test_larger_theta_cheaper algo () =
  let stream =
    Stream_gen.overlapping ~sites:4 ~per_site:5_000 ~shared_fraction:0.3 ()
  in
  let family = mk_family ~bitmaps:64 () in
  let cost theta =
    let tracker = Dc.Fm.create ~algorithm:algo ~theta ~sites:4 ~family () in
    run_stream tracker stream;
    Network.total_bytes (Dc.Fm.network tracker)
  in
  let tight = cost 0.02 and loose = cost 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: theta=0.02 costs %d >= theta=0.5 costs %d"
       (algo_name algo) tight loose)
    true (tight >= loose)

let test_ns_has_no_downstream () =
  let stream = Stream_gen.uniform ~sites:3 ~events:10_000 ~universe:4_000 () in
  let tracker =
    Dc.Fm.create ~algorithm:Dc.NS ~theta:0.1 ~sites:3
      ~family:(mk_family ~bitmaps:64 ()) ()
  in
  run_stream tracker stream;
  Alcotest.(check int) "NS never sends downstream" 0
    (Network.bytes_down (Dc.Fm.network tracker))

let test_ls_downstream_unicast_only () =
  (* LS replies only to the sender: downstream messages = upstream
     sketch deliveries, never k-1 broadcasts. *)
  let stream = Stream_gen.uniform ~sites:6 ~events:20_000 ~universe:8_000 () in
  let tracker =
    Dc.Fm.create ~algorithm:Dc.LS ~theta:0.1 ~sites:6
      ~family:(mk_family ~bitmaps:64 ()) ()
  in
  run_stream tracker stream;
  let net = Dc.Fm.network tracker in
  Alcotest.(check bool) "downstream messages = upstream messages" true
    (Network.messages_down net = Network.messages_up net)

let test_radio_model_favors_ss () =
  (* Section 7.2: with broadcast-priced downstream, SS becomes much more
     competitive; its radio cost must be well below its unicast cost. *)
  let stream =
    Stream_gen.overlapping ~sites:8 ~per_site:4_000 ~shared_fraction:0.5 ()
  in
  let family = mk_family ~bitmaps:64 () in
  let cost cost_model =
    let tracker =
      Dc.Fm.create ~cost_model ~algorithm:Dc.SS ~theta:0.1 ~sites:8 ~family ()
    in
    run_stream tracker stream;
    Network.total_bytes (Dc.Fm.network tracker)
  in
  let unicast = cost Network.Unicast in
  let radio = cost Network.Radio_broadcast in
  Alcotest.(check bool)
    (Printf.sprintf "SS radio %d < unicast %d" radio unicast)
    true (radio < unicast)

let test_item_batching_never_worse () =
  let stream = Stream_gen.zipf ~sites:4 ~events:30_000 ~universe:10_000 () in
  let family = mk_family ~bitmaps:256 () in
  let cost item_batching =
    let tracker =
      Dc.Fm.create ~item_batching ~algorithm:Dc.NS ~theta:0.1 ~sites:4
        ~family ()
    in
    run_stream tracker stream;
    Network.total_bytes (Dc.Fm.network tracker)
  in
  let with_b = cost true and without = cost false in
  Alcotest.(check bool)
    (Printf.sprintf "batching %d <= plain %d" with_b without)
    true
    (with_b <= without)

let test_validation () =
  let family = mk_family () in
  Alcotest.check_raises "sites >= 1"
    (Invalid_argument "Dc_tracker.create: sites must be >= 1") (fun () ->
      ignore
        (Dc.Fm.create ~algorithm:Dc.NS ~theta:0.1 ~sites:0 ~family ()
          : Dc.Fm.t));
  Alcotest.check_raises "theta > 0"
    (Invalid_argument "Dc_tracker.create: theta must be positive") (fun () ->
      ignore
        (Dc.Fm.create ~algorithm:Dc.NS ~theta:0.0 ~sites:2 ~family ()
          : Dc.Fm.t));
  let t = Dc.Fm.create ~algorithm:Dc.NS ~theta:0.1 ~sites:2 ~family () in
  Alcotest.check_raises "site range"
    (Invalid_argument "Dc_tracker.observe: site index out of range")
    (fun () -> Dc.Fm.observe t ~site:5 42);
  Alcotest.check_raises "observe_batch length mismatch"
    (Invalid_argument "Dc_tracker.observe_batch: sites/items length mismatch")
    (fun () ->
      Dc.Fm.observe_batch t ~sites:[| 0 |] ~items:[| 1; 2 |] ~pos:0 ~len:1);
  Alcotest.check_raises "observe_batch slice range"
    (Invalid_argument "Dc_tracker.observe_batch: slice out of range")
    (fun () ->
      Dc.Fm.observe_batch t ~sites:[| 0 |] ~items:[| 1 |] ~pos:0 ~len:2)

(* A bad site in the middle of a batch, past the first key block:
   [observe_batch] applies every update before it, then raises, exactly
   as feeding the same updates one [observe] at a time does.  Both
   trackers then take the rest of the stream and still agree. *)
let test_bad_site_mid_batch () =
  let module Fmc = Wd_sketch.Fm_concentrated in
  let module T = Dc.Make (Fmc) in
  let n = 200 and bad = 150 in
  let items = Array.init n (fun i -> (i * 7) mod 61) in
  let sites = Array.init n (fun i -> if i = bad then 7 else i mod 4) in
  List.iter
    (fun alg ->
      let make () =
        T.create ~algorithm:alg ~theta:0.05 ~sites:4
          ~family:(Fmc.family_custom ~rng:(Rng.create 5) ~buckets:16)
          ()
      in
      let name = algo_name alg in
      let folded = make () and batched = make () in
      for j = 10 to bad - 1 do
        T.observe folded ~site:sites.(j) items.(j)
      done;
      Alcotest.check_raises (name ^ " observe names the site")
        (Invalid_argument "Dc_tracker.observe: site index out of range")
        (fun () -> T.observe folded ~site:sites.(bad) items.(bad));
      Alcotest.check_raises (name ^ " observe_batch names the site")
        (Invalid_argument "Dc_tracker.observe_batch: site index out of range")
        (fun () ->
          T.observe_batch batched ~sites ~items ~pos:10 ~len:(n - 20));
      let agree what =
        Alcotest.(check int) (name ^ " updates " ^ what) (T.updates folded)
          (T.updates batched);
        Alcotest.(check int) (name ^ " sends " ^ what) (T.sends folded)
          (T.sends batched);
        Alcotest.(check int)
          (name ^ " bytes " ^ what)
          (Network.total_bytes (T.network folded))
          (Network.total_bytes (T.network batched));
        Alcotest.(check (float 0.0))
          (name ^ " estimate " ^ what)
          (T.estimate folded) (T.estimate batched)
      in
      Alcotest.(check int) (name ^ " updates before the bad site") (bad - 10)
        (T.updates batched);
      agree "at the raise";
      Alcotest.(check bool) (name ^ " sent before the raise") true
        (T.sends batched > 0);
      for j = bad + 1 to n - 1 do
        T.observe folded ~site:sites.(j) items.(j)
      done;
      T.observe_batch batched ~sites ~items ~pos:(bad + 1) ~len:(n - bad - 1);
      agree "after the rest")
    Dc.all_algorithms

(* The exact algorithm has no send threshold: the error must name EC so a
   caller poking the wrong mode learns which variant it holds. *)
let test_ec_has_no_threshold () =
  let family = mk_family () in
  let t = Dc.Fm.create ~algorithm:Dc.EC ~theta:0.1 ~sites:2 ~family () in
  Alcotest.check_raises "threshold names EC"
    (Invalid_argument
       "Dc_tracker.send_threshold: exact algorithm EC has no send threshold")
    (fun () -> ignore (Dc.Fm.site_send_threshold t 0 : float));
  Alcotest.check_raises "site range checked first"
    (Invalid_argument "Dc_tracker.site_send_threshold: site index out of range")
    (fun () -> ignore (Dc.Fm.site_send_threshold t 9 : float));
  (* Approximate algorithms do expose a finite threshold. *)
  let t = Dc.Fm.create ~algorithm:Dc.NS ~theta:0.1 ~sites:2 ~family () in
  Alcotest.(check bool)
    "NS threshold finite" true
    (Float.is_finite (Dc.Fm.site_send_threshold t 0))

let test_algorithm_strings () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        "roundtrip" true
        (Dc.algorithm_of_string (Dc.algorithm_to_string a) = Some a))
    Dc.all_algorithms;
  Alcotest.(check bool) "unknown" true (Dc.algorithm_of_string "XX" = None)

(* --- QCheck: conservation property on random multi-site streams --- *)

let prop_no_information_loss =
  QCheck.Test.make ~name:"no information loss on random streams" ~count:30
    QCheck.(
      triple (int_range 1 4)
        (list_of_size (Gen.int_range 1 300) (int_range 0 400))
        (int_range 0 3))
    (fun (k, items, algo_idx) ->
      let algo = List.nth Dc.approximate_algorithms algo_idx in
      let family = mk_family ~seed:82 ~bitmaps:8 () in
      let tracker = Dc.Fm.create ~algorithm:algo ~theta:0.3 ~sites:k ~family () in
      let reference = Fm.create family in
      List.iteri
        (fun j v ->
          Dc.Fm.observe tracker ~site:(j mod k) v;
          ignore (Fm.add reference v : bool))
        items;
      match Dc.Fm.coordinator_sketch tracker with
      | None -> false
      | Some sk0 ->
        let reconstructed = Fm.copy sk0 in
        List.iter (fun v -> ignore (Fm.add reconstructed v : bool)) items;
        Fm.equal reconstructed reference)

let () =
  let per_algo name f =
    List.map
      (fun a ->
        Alcotest.test_case
          (Printf.sprintf "%s (%s)" name (algo_name a))
          `Quick (f a))
      Dc.approximate_algorithms
  in
  Alcotest.run "dc-tracker"
    [
      ( "exact baseline",
        [
          Alcotest.test_case "EC exact" `Quick test_ec_is_exact;
          Alcotest.test_case "EC cost formula" `Quick test_ec_cost_formula;
        ] );
      ("guarantee", per_algo "error budget" test_guarantee);
      ("conservation", per_algo "no info loss" test_no_information_loss);
      ( "sharing invariants",
        [
          Alcotest.test_case "SS sites dominate Sk0" `Quick
            test_ss_sites_dominate_coordinator;
          Alcotest.test_case "LS residue bounded" `Quick test_ls_sender_sync;
        ] );
      ("duplicates", per_algo "duplicate resilience" test_duplicate_resilience);
      ( "cost",
        per_algo "cheaper than exact" test_cheaper_than_exact
        @ per_algo "theta monotone" test_larger_theta_cheaper
        @ [
            Alcotest.test_case "NS silent downstream" `Quick
              test_ns_has_no_downstream;
            Alcotest.test_case "LS unicast replies" `Quick
              test_ls_downstream_unicast_only;
            Alcotest.test_case "radio favors SS" `Quick test_radio_model_favors_ss;
            Alcotest.test_case "batching never worse" `Quick
              test_item_batching_never_worse;
          ] );
      ( "api",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "bad site mid-batch" `Quick
            test_bad_site_mid_batch;
          Alcotest.test_case "EC has no threshold" `Quick
            test_ec_has_no_threshold;
          Alcotest.test_case "algorithm strings" `Quick test_algorithm_strings;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_no_information_loss ]);
    ]
