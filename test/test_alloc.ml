(* Allocation regression suite: the per-update paths of the sketches and
   trackers allocate nothing in steady state.

   Each case runs its updates once to warm up (tables sized, bits set,
   sampling levels raised), then runs the same updates again and counts
   the minor-heap words they allocate.  It fails above [slack] words in
   total, a fixed allowance for the boxed float [Gc.minor_words] returns
   at the edges of the window; over 100k updates that is well under
   0.001 words per update, where a single boxed [int64] per update would
   read 3.

   The rule that makes these paths allocation-free: a module compiled
   [-opaque] (dune's default profile) cannot be inlined into its callers,
   so an [int64] that crosses a module boundary, as argument or result,
   is boxed.  Hash words therefore stay inside one function and leave
   their module as native ints: [Mixed_tabulation.pcsa],
   [Universal.bits]/[to_range], [Geometric.level], [Splitmix.mix_bits],
   and their block twins, which fill a caller's [int array]
   ([Mixed_tabulation.pcsa_block] is fmc's [keys], the DC tracker's
   block path).

   What still allocates, and why:
   - [Hyperloglog] and [Bjkst] updates: they read all 64 bits of
     [Universal.hash] (HyperLogLog's register index and rank come from
     both halves; BJKST keeps [int64] hash keys), and that [int64] is
     boxed as it leaves [Universal].
   - [Fm_array.pair_element]: [Splitmix.mix_seeded] takes and returns
     boxed [int64]s.
   - Updates that send or grow protocol state, which are not steady
     state: a DS item entering a site's counts (hashtable insert), a DS
     count report or level change (message, pruning), a DC threshold
     crossing (message, estimate refresh).  A DS or YZ-HH count
     increment that sends nothing allocates nothing: table lookups
     raise [Not_found] instead of building an option, and the DS send
     threshold is compared unboxed. *)

module Rng = Wd_hashing.Rng
module Fmc = Wd_sketch.Fm_concentrated
module Fm = Wd_sketch.Fm
module Fm_window = Wd_sketch.Fm_window
module Sampler = Wd_sketch.Distinct_sampler
module Fanout = Wd_view.Fanout_sketch
module Registry = Wd_view.Registry
module Query = Wd_view.Query
module Ds = Wd_protocol.Ds_tracker
module Dc_fmc = Wd_protocol.Dc_tracker.Make (Fmc)
module Yz_hh = Wd_protocol.Yz_hh_tracker
module Tracker_intf = Wd_protocol.Tracker_intf
module Network = Wd_net.Network
module Cm = Wd_frequency.Cm_sketch
module Fm_array = Wd_aggregate.Fm_array

let slack = 16.0
let n = 100_000

(* [n] items with repeats, as a stream has them. *)
let items = Array.init n (fun i -> (i * 7919) mod (n / 2))

(* Warm up with [f], then count the words a second [f] allocates. *)
let check_quiet ~updates f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  let words = Gc.minor_words () -. w0 in
  if words > slack then
    Alcotest.failf "%.0f minor words over %d updates (%.4f per update)" words
      updates
      (words /. Float.of_int updates)

let each f () = Array.iter f items

let fmc_family () =
  Fmc.family ~rng:(Rng.create 3) ~accuracy:0.05 ~confidence:0.95

let fmc_add () =
  let t = Fmc.create (fmc_family ()) in
  check_quiet ~updates:n (each (fun v -> ignore (Fmc.add t v : bool)))

let fmc_add_batch () =
  let t = Fmc.create (fmc_family ()) in
  check_quiet ~updates:n (fun () -> Fmc.add_batch t items)

(* The DC tracker's block path: keys hashed a block at a time, then
   added one by one. *)
let fmc_keys_add_key () =
  let fam = fmc_family () in
  let t = Fmc.create fam in
  let keys = Array.make n 0 in
  check_quiet ~updates:n (fun () ->
      Fmc.keys fam ~src:items ~pos:0 ~len:n ~dst:keys;
      Array.iter (fun k -> ignore (Fmc.add_key t k : bool)) keys)

let fmc_delta_bytes () =
  let fam = fmc_family () in
  let a = Fmc.create fam and b = Fmc.create fam in
  Fmc.add_batch a items;
  Fmc.add_batch b (Array.sub items 0 (n / 3));
  let calls = 10_000 in
  let total = ref 0 in
  check_quiet ~updates:calls (fun () ->
      for _ = 1 to calls do
        total := !total + Fmc.delta_bytes ~from:b a
      done);
  Alcotest.(check bool) "a holds bits b lacks" true (!total > 0)

(* Two families on one plane: the second add of every item hits the
   plane's memo. *)
let fanout_add () =
  let plane = Fanout.plane ~rng:(Rng.create 4) () in
  let fine = Fanout.family_on ~plane ~accuracy:0.05 ~confidence:0.95
  and coarse = Fanout.family_on ~plane ~accuracy:0.2 ~confidence:0.9 in
  let a = Fanout.create fine and b = Fanout.create coarse in
  check_quiet ~updates:(2 * n)
    (each (fun v ->
         ignore (Fanout.add a v : bool);
         ignore (Fanout.add b v : bool)))

let fm_family variant =
  Fm.family_custom ~rng:(Rng.create 5) ~variant ~bitmaps:32

let fm_add variant () =
  let t = Fm.create (fm_family variant) in
  check_quiet ~updates:n (each (fun v -> ignore (Fm.add t v : bool)))

let fm_add_batch variant () =
  let t = Fm.create (fm_family variant) in
  check_quiet ~updates:n (fun () -> Fm.add_batch t items)

let fm_window_add () =
  let fam = Fm_window.family_custom ~rng:(Rng.create 6) ~bitmaps:64 in
  let t = Fm_window.create fam in
  let time = ref 0 in
  check_quiet ~updates:n
    (each (fun v ->
         incr time;
         ignore (Fm_window.add t ~time:!time v : bool)))

let cm_add () =
  let t = Cm.create ~rng:(Rng.create 7) ~rows:4 ~cols:1024 in
  check_quiet ~updates:n (each (fun v -> Cm.add t v))

let fm_array_add () =
  let fam =
    Fm_array.family ~rng:(Rng.create 8)
      { Fm_array.rows = 3; cols = 64; bitmaps = 8 }
  in
  let t = Fm_array.create fam in
  check_quiet ~updates:n
    (each (fun v -> ignore (Fm_array.add t ~key:(v mod 97) ~element:v : bool)))

(* Items the sampler's level rejects, once enough distinct items have
   raised it. *)
let below_level (level_of : int -> int) ~level =
  let vs = Array.init (4 * n) (fun i -> i) in
  let below = List.filter (fun v -> level_of v < level) (Array.to_list vs) in
  Array.of_list below

let sampler_add_batch () =
  let fam = Sampler.family ~rng:(Rng.create 9) ~threshold:64 in
  let t = Sampler.create fam in
  Sampler.add_batch t (Array.init (4 * n) (fun i -> i));
  let level = Sampler.level t in
  Alcotest.(check bool) "level raised" true (level >= 4);
  let vs = below_level (Sampler.item_level t) ~level in
  check_quiet ~updates:(Array.length vs) (fun () -> Sampler.add_batch t vs)

(* The end-to-end quiet chunk: a whole-stream DC view over fmc on the
   simulator, fed a chunk whose items every site has already seen. *)
let registry_quiet_chunk () =
  let q =
    match Query.of_spec "dc:ls:sketch=fmc,alpha=0.1,theta=0.05" with
    | Ok q -> q
    | Error e -> Alcotest.fail e
  in
  let reg = Registry.create ~seed:1 ~sites:4 [ q ] in
  let tr = Registry.packed reg in
  let net = Tracker_intf.network tr in
  let sites = Array.init n (fun i -> i mod 4) in
  let feed () =
    Tracker_intf.observe_batch tr ~sites ~items ~pos:0 ~len:n
  in
  feed ();
  let m0 = Network.total_messages net in
  check_quiet ~updates:n feed;
  Alcotest.(check int) "the chunk was quiet" m0 (Network.total_messages net);
  Registry.close reg

(* The per-update entry point: [observe] on items every site has
   already seen hashes each one and sends nothing. *)
let dc_fmc_observe_quiet () =
  let tr =
    Dc_fmc.create ~algorithm:Wd_protocol.Dc_tracker.LS ~theta:0.05 ~sites:4
      ~family:(fmc_family ()) ()
  in
  let feed () =
    Array.iteri (fun i v -> Dc_fmc.observe tr ~site:(i mod 4) v) items
  in
  feed ();
  let sends = Dc_fmc.sends tr in
  check_quiet ~updates:n feed;
  Alcotest.(check int) "no site sent" sends (Dc_fmc.sends tr)

let ds_lco_below_level () =
  let family = Sampler.family ~rng:(Rng.create 10) ~threshold:100 in
  let tr = Ds.create ~algorithm:Ds.LCO ~theta:0.25 ~sites:4 ~family () in
  let raise_items = Array.init (4 * n) (fun i -> i) in
  Ds.observe_batch tr
    ~sites:(Array.map (fun v -> v mod 4) raise_items)
    ~items:raise_items ~pos:0 ~len:(4 * n);
  let level = Ds.level tr in
  Alcotest.(check bool) "level raised" true (level >= 4);
  let mirror = Sampler.create family in
  let vs = below_level (Sampler.item_level mirror) ~level in
  let sites = Array.map (fun v -> v mod 4) vs in
  let sends = Ds.sends tr in
  check_quiet ~updates:(Array.length vs) (fun () ->
      Ds.observe_batch tr ~sites ~items:vs ~pos:0 ~len:(Array.length vs));
  Alcotest.(check int) "no site sent" sends (Ds.sends tr)

(* Items at or above the sampling level that change a site's count but
   stay under the send threshold: theta = 1e9 makes every report after
   an item's first one wait, and the sampler threshold keeps the level
   at 0.  The second pass only increments counts already in the
   tables. *)
let ds_passing_no_send () =
  let family = Sampler.family ~rng:(Rng.create 11) ~threshold:100_000 in
  let tr = Ds.create ~algorithm:Ds.LCO ~theta:1e9 ~sites:4 ~family () in
  let vs = Array.init 20_000 (fun i -> i) in
  let sites = Array.map (fun v -> v mod 4) vs in
  let feed () =
    Ds.observe_batch tr ~sites ~items:vs ~pos:0 ~len:(Array.length vs)
  in
  feed ();
  Alcotest.(check int) "level 0" 0 (Ds.level tr);
  let sends = Ds.sends tr in
  check_quiet ~updates:(Array.length vs) feed;
  Alcotest.(check int) "no site sent" sends (Ds.sends tr)

(* YZ-HH updates under a large Delta: a long warm-up raises the round
   (Delta grows with it), then 20k new items are fed twice, and no site
   reaches Delta in either pass.  The second pass only increments counts
   already in the tables. *)
let yz_hh_passing_no_send () =
  let tr = Yz_hh.create ~epsilon:0.5 ~top_k:8 ~sites:4 () in
  let warm = Array.init (10 * n) (fun i -> i mod 64) in
  Yz_hh.observe_batch tr
    ~sites:(Array.map (fun v -> v mod 4) warm)
    ~items:warm ~pos:0 ~len:(Array.length warm);
  let vs = Array.init 20_000 (fun i -> 1000 + i) in
  let sites = Array.map (fun v -> v mod 4) vs in
  let feed () =
    Yz_hh.observe_batch tr ~sites ~items:vs ~pos:0 ~len:(Array.length vs)
  in
  Alcotest.(check bool) "Delta above two passes" true
    (Yz_hh.site_send_threshold tr 0 > 10_000.0);
  let sends = Yz_hh.sends tr in
  check_quiet ~updates:(Array.length vs) feed;
  Alcotest.(check int) "no site sent" sends (Yz_hh.sends tr)

let () =
  Alcotest.run "alloc"
    [
      ( "sketch",
        [
          Alcotest.test_case "fmc add" `Quick fmc_add;
          Alcotest.test_case "fmc add_batch" `Quick fmc_add_batch;
          Alcotest.test_case "fmc keys + add_key" `Quick fmc_keys_add_key;
          Alcotest.test_case "fmc delta_bytes" `Quick fmc_delta_bytes;
          Alcotest.test_case "fanout add, shared plane" `Quick fanout_add;
          Alcotest.test_case "fm add averaged" `Quick (fm_add Fm.Averaged);
          Alcotest.test_case "fm add stochastic" `Quick (fm_add Fm.Stochastic);
          Alcotest.test_case "fm add_batch averaged" `Quick
            (fm_add_batch Fm.Averaged);
          Alcotest.test_case "fm add_batch stochastic" `Quick
            (fm_add_batch Fm.Stochastic);
          Alcotest.test_case "fm_window add" `Quick fm_window_add;
          Alcotest.test_case "count-min add" `Quick cm_add;
          Alcotest.test_case "fm_array add" `Quick fm_array_add;
          Alcotest.test_case "sampler add_batch below level" `Quick
            sampler_add_batch;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "dc fmc registry quiet chunk" `Quick
            registry_quiet_chunk;
          Alcotest.test_case "dc fmc observe quiet" `Quick
            dc_fmc_observe_quiet;
          Alcotest.test_case "ds lco below level" `Quick ds_lco_below_level;
          Alcotest.test_case "ds passing update, no send" `Quick
            ds_passing_no_send;
          Alcotest.test_case "yz-hh passing update, no send" `Quick
            yz_hh_passing_no_send;
        ] );
    ]
