(* Integration and property tests for the distinct-sample tracking
   protocols (LCO, GCS, LCS, EDS). *)

module Rng = Wd_hashing.Rng
module Sampler = Wd_sketch.Distinct_sampler
module Network = Wd_net.Network
module Wire = Wd_net.Wire
module Ds = Wd_protocol.Ds_tracker
module Stream = Wd_workload.Stream
module Stream_gen = Wd_workload.Stream_gen

let mk_family ?(seed = 91) ~threshold () =
  Sampler.family ~rng:(Rng.create seed) ~threshold

let run_stream tracker stream =
  Stream.iter (fun ~site ~item -> Ds.observe tracker ~site item) stream

let algo_name = Ds.algorithm_to_string

(* --- Retained-set equivalence (deterministic) ---

   The coordinator's retained item set must equal the retained set of a
   centralized sampler fed the full union stream: thresholds only delay
   COUNT updates, never the first report of a new retained item. *)
let test_retained_set_matches_centralized algo () =
  let threshold = 48 in
  let family = mk_family ~threshold () in
  let stream = Stream_gen.zipf ~sites:4 ~events:30_000 ~universe:6_000 () in
  let tracker = Ds.create ~algorithm:algo ~theta:0.4 ~sites:4 ~family () in
  let central = Sampler.create family in
  Stream.iter
    (fun ~site ~item ->
      Ds.observe tracker ~site item;
      Sampler.add central item)
    stream;
  Alcotest.(check int)
    (algo_name algo ^ ": same level")
    (Sampler.level central) (Ds.level tracker);
  Alcotest.(check int)
    (algo_name algo ^ ": same sample size")
    (Sampler.size central) (Ds.sample_size tracker);
  List.iter
    (fun (v, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: item %d retained" (algo_name algo) v)
        true
        (Ds.count tracker v > 0))
    (Sampler.contents central)

(* --- Count-lag guarantee (Lemma 2) ---

   Every retained count at the coordinator is within a (1 + theta) factor
   of the exact global count. *)
let test_count_lag_bounded algo () =
  let theta = 0.3 in
  let family = mk_family ~threshold:64 () in
  let stream = Stream_gen.zipf ~sites:5 ~events:50_000 ~universe:2_000 () in
  let tracker = Ds.create ~algorithm:algo ~theta ~sites:5 ~family () in
  run_stream tracker stream;
  let exact = Stream.multiplicities stream in
  List.iter
    (fun (v, c) ->
      let c_true = Hashtbl.find exact v in
      Alcotest.(check bool)
        (Printf.sprintf "%s: item %d count %d vs true %d" (algo_name algo) v
           c c_true)
        true
        (c <= c_true && Float.of_int c_true <= (1.0 +. theta) *. Float.of_int c))
    (Ds.sample tracker)

(* --- EDS is exact --- *)

let test_eds_counts_exact () =
  let family = mk_family ~threshold:64 () in
  let stream = Stream_gen.zipf ~sites:3 ~events:20_000 ~universe:1_000 () in
  let tracker = Ds.create ~algorithm:Ds.EDS ~theta:0.5 ~sites:3 ~family () in
  run_stream tracker stream;
  let exact = Stream.multiplicities stream in
  List.iter
    (fun (v, c) ->
      Alcotest.(check int)
        (Printf.sprintf "EDS count of %d" v)
        (Hashtbl.find exact v) c)
    (Ds.sample tracker)

let test_eds_cost_formula () =
  let stream = Stream_gen.uniform ~sites:3 ~events:5_000 ~universe:1_000 () in
  let family = mk_family ~threshold:32 () in
  let tracker = Ds.create ~algorithm:Ds.EDS ~theta:0.5 ~sites:3 ~family () in
  run_stream tracker stream;
  Alcotest.(check int) "one message per update"
    (Stream.length stream * Wire.message ~payload:Wire.item_bytes)
    (Network.total_bytes (Ds.network tracker))

(* --- Cost behaviour --- *)

let test_cheaper_than_eds algo () =
  let stream =
    Stream_gen.duplicated ~sites:4 ~distinct:2_000 ~copies:25 ()
  in
  let family = mk_family ~threshold:64 () in
  let cost algorithm =
    let tracker = Ds.create ~algorithm ~theta:0.3 ~sites:4 ~family () in
    run_stream tracker stream;
    Network.total_bytes (Ds.network tracker)
  in
  let approx = cost algo and exact = cost Ds.EDS in
  Alcotest.(check bool)
    (Printf.sprintf "%s bytes %d < EDS bytes %d" (algo_name algo) approx exact)
    true (approx < exact)

let test_cost_grows_with_threshold algo () =
  (* Figure 6(a)/(b): communication scales with the sample size T. *)
  let stream = Stream_gen.zipf ~sites:4 ~events:40_000 ~universe:20_000 () in
  let cost threshold =
    let family = mk_family ~threshold () in
    let tracker = Ds.create ~algorithm:algo ~theta:0.3 ~sites:4 ~family () in
    run_stream tracker stream;
    Network.total_bytes (Ds.network tracker)
  in
  let small = cost 16 and large = cost 512 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: T=16 costs %d < T=512 costs %d" (algo_name algo)
       small large)
    true (small < large)

let test_theta_weakly_decreases_cost algo () =
  (* Figure 6(c): cost decays (weakly) as theta grows. *)
  let stream =
    Stream_gen.duplicated ~sites:4 ~distinct:500 ~copies:100 ()
  in
  let family = mk_family ~threshold:64 () in
  let cost theta =
    let tracker = Ds.create ~algorithm:algo ~theta ~sites:4 ~family () in
    run_stream tracker stream;
    Network.total_bytes (Ds.network tracker)
  in
  let tight = cost 0.05 and loose = cost 0.8 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: theta=0.05 costs %d >= theta=0.8 costs %d"
       (algo_name algo) tight loose)
    true (tight >= loose)

let test_lco_no_count_downstream () =
  (* LCO's only downstream traffic is level broadcasts. *)
  let stream = Stream_gen.zipf ~sites:4 ~events:30_000 ~universe:10_000 () in
  let family = mk_family ~threshold:32 () in
  let tracker = Ds.create ~algorithm:Ds.LCO ~theta:0.3 ~sites:4 ~family () in
  run_stream tracker stream;
  let net = Ds.network tracker in
  let levels = Ds.level tracker in
  (* Each level change is one broadcast of a level byte to 4 sites. *)
  Alcotest.(check bool)
    (Printf.sprintf "downstream %d = level broadcasts only"
       (Network.bytes_down net))
    true
    (Network.bytes_down net
    <= levels * 4 * Wire.message ~payload:Wire.level_bytes)

let test_duplicate_streams_same_sample algo () =
  (* Re-observing the same multiset at other sites must not change the
     retained set (counts grow, membership does not). *)
  let family = mk_family ~threshold:32 () in
  let base = Stream_gen.uniform ~sites:4 ~events:10_000 ~universe:3_000 () in
  let echo =
    Stream.make
      ~sites:(Array.init (Stream.length base) (fun j -> (Stream.site base j + 1) mod 4))
      ~items:(Array.init (Stream.length base) (Stream.item base))
  in
  let once = Ds.create ~algorithm:algo ~theta:0.3 ~sites:4 ~family () in
  run_stream once base;
  let twice = Ds.create ~algorithm:algo ~theta:0.3 ~sites:4 ~family () in
  run_stream twice (Stream.concat [ base; echo ]);
  Alcotest.(check int)
    (algo_name algo ^ ": same level")
    (Ds.level once) (Ds.level twice);
  let set t = List.sort compare (List.map fst (Ds.sample t)) in
  Alcotest.(check (list int))
    (algo_name algo ^ ": same retained set")
    (set once) (set twice)

let test_validation () =
  let family = mk_family ~threshold:8 () in
  Alcotest.check_raises "sites >= 1"
    (Invalid_argument "Ds_tracker.create: sites must be >= 1") (fun () ->
      ignore
        (Ds.create ~algorithm:Ds.LCO ~theta:0.1 ~sites:0 ~family () : Ds.t));
  Alcotest.check_raises "theta > 0"
    (Invalid_argument "Ds_tracker.create: theta must be positive") (fun () ->
      ignore
        (Ds.create ~algorithm:Ds.LCO ~theta:0.0 ~sites:2 ~family () : Ds.t));
  let t = Ds.create ~algorithm:Ds.LCO ~theta:0.1 ~sites:2 ~family () in
  Alcotest.check_raises "site range"
    (Invalid_argument "Ds_tracker.observe: site index out of range")
    (fun () -> Ds.observe t ~site:9 1);
  Alcotest.check_raises "observe_batch length mismatch"
    (Invalid_argument "Ds_tracker.observe_batch: sites/items length mismatch")
    (fun () ->
      Ds.observe_batch t ~sites:[| 0 |] ~items:[| 1; 2 |] ~pos:0 ~len:1);
  Alcotest.check_raises "observe_batch slice range"
    (Invalid_argument "Ds_tracker.observe_batch: slice out of range")
    (fun () -> Ds.observe_batch t ~sites:[| 0 |] ~items:[| 1 |] ~pos:1 ~len:1)

(* A bad site in the middle of a batch, past the first hash block:
   [observe_batch] applies every update before it, then raises, exactly
   as feeding the same updates one [observe] at a time does.  Both
   trackers then take the rest of the stream and still agree.  The
   small threshold raises the level early, so most updates before the
   bad site are quiet and the scan steps over them. *)
let test_bad_site_mid_batch () =
  let n = 700 and bad = 520 in
  let items = Array.init n (fun i -> (i * 7) mod 251) in
  let sites = Array.init n (fun i -> if i = bad then 7 else i mod 4) in
  List.iter
    (fun alg ->
      let make () =
        Ds.create ~algorithm:alg ~theta:0.1 ~sites:4
          ~family:(mk_family ~threshold:8 ())
          ()
      in
      let name = algo_name alg in
      let folded = make () and batched = make () in
      for j = 10 to bad - 1 do
        Ds.observe folded ~site:sites.(j) items.(j)
      done;
      Alcotest.check_raises (name ^ " observe names the site")
        (Invalid_argument "Ds_tracker.observe: site index out of range")
        (fun () -> Ds.observe folded ~site:sites.(bad) items.(bad));
      Alcotest.check_raises (name ^ " observe_batch names the site")
        (Invalid_argument "Ds_tracker.observe_batch: site index out of range")
        (fun () ->
          Ds.observe_batch batched ~sites ~items ~pos:10 ~len:(n - 20));
      let agree what =
        Alcotest.(check int) (name ^ " updates " ^ what) (Ds.updates folded)
          (Ds.updates batched);
        Alcotest.(check int) (name ^ " sends " ^ what) (Ds.sends folded)
          (Ds.sends batched);
        Alcotest.(check int)
          (name ^ " bytes " ^ what)
          (Network.total_bytes (Ds.network folded))
          (Network.total_bytes (Ds.network batched));
        Alcotest.(check int) (name ^ " level " ^ what) (Ds.level folded)
          (Ds.level batched);
        Alcotest.(check (list (pair int int)))
          (name ^ " sample " ^ what)
          (List.sort compare (Ds.sample folded))
          (List.sort compare (Ds.sample batched))
      in
      Alcotest.(check int) (name ^ " updates before the bad site") (bad - 10)
        (Ds.updates batched);
      agree "at the raise";
      Alcotest.(check bool) (name ^ " level raised before the raise") true
        (Ds.level batched > 0);
      for j = bad + 1 to n - 1 do
        Ds.observe folded ~site:sites.(j) items.(j)
      done;
      Ds.observe_batch batched ~sites ~items ~pos:(bad + 1) ~len:(n - bad - 1);
      agree "after the rest")
    Ds.all_algorithms

(* A site that is down when the crash plan is replaced by one without
   crash windows stays down: no crash scan runs to bring it back, so its
   arrivals are lost.  Level broadcasts reach it again and raise its
   level, so the batch path must count its arrivals as lost rather than
   step over them as quiet. *)
let test_down_site_after_plan_swap () =
  let n = 3000 and swap = 100 in
  let items = Array.init n (fun i -> (i * 7) mod 1009) in
  let sites = Array.init n (fun i -> i mod 4) in
  List.iter
    (fun alg ->
      let make () =
        let t =
          Ds.create ~algorithm:alg ~theta:0.1 ~sites:4
            ~family:(mk_family ~threshold:8 ())
            ()
        in
        (match Wd_net.Faults.of_spec ~seed:3 "crash=1:50:100000" with
        | Ok plan -> Network.set_faults (Ds.network t) plan
        | Error e -> failwith e);
        t
      in
      let name = algo_name alg in
      let folded = make () and batched = make () in
      for j = 0 to swap - 1 do
        Ds.observe folded ~site:sites.(j) items.(j)
      done;
      Ds.observe_batch batched ~sites ~items ~pos:0 ~len:swap;
      List.iter
        (fun t -> Network.set_faults (Ds.network t) Wd_net.Faults.none)
        [ folded; batched ];
      for j = swap to n - 1 do
        Ds.observe folded ~site:sites.(j) items.(j)
      done;
      Ds.observe_batch batched ~sites ~items ~pos:swap ~len:(n - swap);
      Alcotest.(check bool) (name ^ " site 1 lost its arrivals") true
        (Ds.lost_updates batched > (n - swap) / 4);
      Alcotest.(check int) (name ^ " lost updates") (Ds.lost_updates folded)
        (Ds.lost_updates batched);
      Alcotest.(check int) (name ^ " sends") (Ds.sends folded)
        (Ds.sends batched);
      Alcotest.(check int) (name ^ " bytes")
        (Network.total_bytes (Ds.network folded))
        (Network.total_bytes (Ds.network batched));
      Alcotest.(check (list (pair int int)))
        (name ^ " sample")
        (List.sort compare (Ds.sample folded))
        (List.sort compare (Ds.sample batched)))
    Ds.approximate_algorithms

(* The exact algorithm has no send threshold: the error must name EDS so
   a caller poking the wrong mode learns which variant it holds. *)
let test_eds_has_no_threshold () =
  let family = mk_family ~threshold:8 () in
  let t = Ds.create ~algorithm:Ds.EDS ~theta:0.1 ~sites:2 ~family () in
  Alcotest.check_raises "threshold names EDS"
    (Invalid_argument
       "Ds_tracker.send_threshold: exact algorithm EDS has no send threshold")
    (fun () -> ignore (Ds.site_send_threshold t 0 7 : float));
  Alcotest.check_raises "site range checked first"
    (Invalid_argument "Ds_tracker.site_send_threshold: site index out of range")
    (fun () -> ignore (Ds.site_send_threshold t 9 7 : float));
  let t = Ds.create ~algorithm:Ds.LCO ~theta:0.1 ~sites:2 ~family () in
  Alcotest.(check bool)
    "LCO threshold finite" true
    (Float.is_finite (Ds.site_send_threshold t 0 7))

let test_algorithm_strings () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        "roundtrip" true
        (Ds.algorithm_of_string (Ds.algorithm_to_string a) = Some a))
    Ds.all_algorithms

(* --- QCheck: coordinator invariants on random streams --- *)

let prop_counts_never_exceed_truth =
  QCheck.Test.make ~name:"tracked counts never exceed exact counts" ~count:40
    QCheck.(
      triple (int_range 1 4)
        (list_of_size (Gen.int_range 1 500) (int_range 0 80))
        (int_range 0 2))
    (fun (k, items, algo_idx) ->
      let algo = List.nth Ds.approximate_algorithms algo_idx in
      let family = mk_family ~seed:92 ~threshold:8 () in
      let tracker = Ds.create ~algorithm:algo ~theta:0.5 ~sites:k ~family () in
      let exact = Hashtbl.create 64 in
      List.iteri
        (fun j v ->
          Ds.observe tracker ~site:(j mod k) v;
          Hashtbl.replace exact v
            (1 + Option.value (Hashtbl.find_opt exact v) ~default:0))
        items;
      List.for_all
        (fun (v, c) -> c <= Hashtbl.find exact v)
        (Ds.sample tracker))

let prop_retained_set_matches =
  QCheck.Test.make ~name:"retained set equals centralized sampler" ~count:40
    QCheck.(
      triple (int_range 1 4)
        (list_of_size (Gen.int_range 1 500) (int_range 0 300))
        (int_range 0 2))
    (fun (k, items, algo_idx) ->
      let algo = List.nth Ds.approximate_algorithms algo_idx in
      let family = mk_family ~seed:93 ~threshold:8 () in
      let tracker = Ds.create ~algorithm:algo ~theta:0.5 ~sites:k ~family () in
      let central = Sampler.create family in
      List.iteri
        (fun j v ->
          Ds.observe tracker ~site:(j mod k) v;
          Sampler.add central v)
        items;
      let set_a = List.sort compare (List.map fst (Ds.sample tracker)) in
      let set_b = List.sort compare (List.map fst (Sampler.contents central)) in
      set_a = set_b)

let () =
  let per_algo name f =
    List.map
      (fun a ->
        Alcotest.test_case
          (Printf.sprintf "%s (%s)" name (algo_name a))
          `Quick (f a))
      Ds.approximate_algorithms
  in
  Alcotest.run "ds-tracker"
    [
      ( "equivalence",
        per_algo "retained set" test_retained_set_matches_centralized
        @ per_algo "duplicate streams" test_duplicate_streams_same_sample );
      ("lag", per_algo "count lag" test_count_lag_bounded);
      ( "exact baseline",
        [
          Alcotest.test_case "EDS exact counts" `Quick test_eds_counts_exact;
          Alcotest.test_case "EDS cost formula" `Quick test_eds_cost_formula;
        ] );
      ( "cost",
        per_algo "cheaper than EDS" test_cheaper_than_eds
        @ per_algo "grows with T" test_cost_grows_with_threshold
        @ per_algo "decays with theta" test_theta_weakly_decreases_cost
        @ [
            Alcotest.test_case "LCO downstream" `Quick
              test_lco_no_count_downstream;
          ] );
      ( "api",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "bad site mid-batch" `Quick
            test_bad_site_mid_batch;
          Alcotest.test_case "down site after plan swap" `Quick
            test_down_site_after_plan_swap;
          Alcotest.test_case "EDS has no threshold" `Quick
            test_eds_has_no_threshold;
          Alcotest.test_case "algorithm strings" `Quick test_algorithm_strings;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_counts_never_exceed_truth; prop_retained_set_matches ] );
    ]
