(* Property tests over the sketch algebra — the invariants that make
   duplicate-resilient monitoring (and this PR's recovery-by-retransmission
   machinery) sound:

   - merge is commutative, associative, and idempotent for the bitmap
     sketches (FM both variants, BJKST, HLL);
   - merging partitioned streams equals sketching the concatenation
     (distributed = centralized), so estimates agree;
   - re-inserting duplicates never changes a bitmap sketch — which is
     exactly why a retransmitted sketch merge is harmless;
   - the distinct sampler merges commutatively/associatively, a merge of
     partitioned streams equals one sampler over the whole stream, and a
     self-merge preserves the retained support and level while doubling
     counts (counts are additive, not idempotent — the reason count
     reports ship absolute values under faults);
   - [add_batch] is observationally equal to folding [add], for every
     sketch behind DISTINCT_SKETCH and for the sampler, including across
     merges, and so is [add_key] folded over a block of [keys] (same
     change flags, equal summary) — and [observe_batch] is
     observationally equal to folding [observe] for both trackers (same
     estimates, byte ledgers and send counts), over copied keys (fm) and
     hashed ones (fmc), across key blocks and under a crash plan, and
     for DS across hash blocks under loss, duplication and crashes,
     which is what licenses the batched simulator fast path;
   - hierarchical merging up a random tree (sites -> aggregators ->
     root, depth >= 2) equals the centralized sketch for every family
     and estimator, which is what licenses aggregators forwarding
     merged frames;
   - the per-hop byte ledger conserves on random tree topologies under
     drop and aggregator-crash faults (root bytes = sum of last-hop
     edge deliveries; grand total = site links + backbone), and a
     depth-1 explicit tree is the flat star bit for bit, for the DC, DS
     and HH trackers.

   Cases and generators live in [Prop] (hand-rolled, seeded by
   WD_PROP_SEED, default 42; >= 200 cases per invariant). *)

module Rng = Wd_hashing.Rng
module Fm = Wd_sketch.Fm
module Fmc = Wd_sketch.Fm_concentrated
module Bjkst = Wd_sketch.Bjkst
module Hll = Wd_sketch.Hyperloglog
module Fanout = Wd_view.Fanout_sketch
module Sampler = Wd_sketch.Distinct_sampler

let mle = Wd_sketch.Sketch_intf.Mle

(* One generated case: independent hash-family seed plus three item
   streams (with duplicates, small universe to force collisions). *)
type case = { fam_seed : int; xs : int list; ys : int list; zs : int list }

let case_gen rng =
  let items = Prop.list ~max_len:60 (Prop.int_range 0 150) in
  {
    fam_seed = Prop.int_range 0 10_000 rng;
    xs = items rng;
    ys = items rng;
    zs = items rng;
  }

let show_case c =
  Printf.sprintf "{fam_seed=%d; xs=%s; ys=%s; zs=%s}" c.fam_seed
    (Prop.show_list Prop.show_int c.xs)
    (Prop.show_list Prop.show_int c.ys)
    (Prop.show_list Prop.show_int c.zs)

let shrink_case c =
  let sl = Prop.shrink_list Prop.shrink_int in
  List.map (fun xs -> { c with xs }) (sl c.xs)
  @ List.map (fun ys -> { c with ys }) (sl c.ys)
  @ List.map (fun zs -> { c with zs }) (sl c.zs)

(* ------------------------------------------------------------------ *)
(* Generic suite over any bitmap-style sketch *)

module type BITMAP_SKETCH = sig
  type family
  type t

  val create : family -> t
  val add : t -> int -> bool
  val add_batch : t -> int array -> unit

  val keys :
    family -> src:int array -> pos:int -> len:int -> dst:int array -> unit

  val add_key : t -> int -> bool
  val merge_into : dst:t -> t -> unit
  val equal : t -> t -> bool
  val estimate : t -> float
end

let bitmap_suite (type f) name (module M : BITMAP_SKETCH with type family = f)
    (mk_family : seed:int -> f) =
  let of_items fam items =
    let s = M.create fam in
    List.iter (fun v -> ignore (M.add s v)) items;
    s
  in
  let merged fam a b =
    let dst = of_items fam a in
    M.merge_into ~dst (of_items fam b);
    dst
  in
  let prop pname p =
    Prop.test_case ~shrink:shrink_case ~show:show_case
      ~name:(Printf.sprintf "%s %s" name pname)
      case_gen p
  in
  [
    prop "merge commutative" (fun c ->
        let fam = mk_family ~seed:c.fam_seed in
        M.equal (merged fam c.xs c.ys) (merged fam c.ys c.xs));
    prop "merge associative" (fun c ->
        let fam = mk_family ~seed:c.fam_seed in
        let ab_c =
          let dst = merged fam c.xs c.ys in
          M.merge_into ~dst (of_items fam c.zs);
          dst
        in
        let a_bc =
          let dst = of_items fam c.xs in
          M.merge_into ~dst (merged fam c.ys c.zs);
          dst
        in
        M.equal ab_c a_bc);
    prop "merge idempotent" (fun c ->
        let fam = mk_family ~seed:c.fam_seed in
        M.equal (merged fam c.xs c.xs) (of_items fam c.xs));
    prop "distributed = centralized" (fun c ->
        let fam = mk_family ~seed:c.fam_seed in
        let whole = of_items fam (c.xs @ c.ys) in
        let m = merged fam c.xs c.ys in
        M.equal m whole && M.estimate m = M.estimate whole);
    prop "tree-merged = centralized (depth >= 2)" (fun c ->
        (* Hierarchical deployment: sites sketch their shards, each
           aggregator merges its children, the root merges the last
           hops.  The result must be the centralized sketch bit for bit
           — this is what licenses aggregators forwarding merged frames
           instead of raw site traffic.  [Topology.random] always has
           at least one aggregator, so every generated tree is depth
           >= 2; aggregator parents are strictly higher-numbered, so an
           ascending sweep merges children before parents. *)
        let module Topology = Wd_net.Topology in
        let fam = mk_family ~seed:c.fam_seed in
        let all = c.xs @ c.ys @ c.zs in
        let items = Array.of_list all in
        let k = 4 in
        let topo = Topology.random ~seed:c.fam_seed ~sites:k in
        let site_sk = Array.init k (fun _ -> M.create fam) in
        Array.iteri
          (fun j v -> ignore (M.add site_sk.((j + v) mod k) v))
          items;
        let agg_sk =
          Array.init (Topology.aggs topo) (fun _ -> M.create fam)
        in
        let root = M.create fam in
        let merge_to parent sk =
          match parent with
          | Topology.Root -> M.merge_into ~dst:root sk
          | Topology.Agg j -> M.merge_into ~dst:agg_sk.(j) sk
        in
        for i = 0 to k - 1 do
          merge_to (Topology.site_parent topo i) site_sk.(i)
        done;
        for j = 0 to Topology.aggs topo - 1 do
          merge_to (Topology.agg_parent topo j) agg_sk.(j)
        done;
        let whole = of_items fam all in
        Topology.depth topo >= 2
        && M.equal root whole
        && M.estimate root = M.estimate whole);
    prop "duplicate insensitive" (fun c ->
        let fam = mk_family ~seed:c.fam_seed in
        M.equal (of_items fam (c.xs @ c.xs)) (of_items fam c.xs));
    prop "add_batch = fold add" (fun c ->
        let fam = mk_family ~seed:c.fam_seed in
        let batched = M.create fam in
        M.add_batch batched (Array.of_list c.xs);
        let folded = of_items fam c.xs in
        M.equal batched folded && M.estimate batched = M.estimate folded);
    prop "add_batch = fold add across merges" (fun c ->
        let fam = mk_family ~seed:c.fam_seed in
        let a = M.create fam and b = M.create fam in
        M.add_batch a (Array.of_list c.xs);
        M.add_batch b (Array.of_list c.ys);
        M.merge_into ~dst:a b;
        M.add_batch a (Array.of_list c.zs);
        let folded = merged fam (c.xs @ c.zs) c.ys in
        M.equal a folded);
    prop "add_key over keys = fold add" (fun c ->
        (* The keys of [ys], read from a slice at offset [|xs|], added to
           a summary that already holds [xs]. *)
        let fam = mk_family ~seed:c.fam_seed in
        let all = Array.of_list (c.xs @ c.ys) in
        let pos = List.length c.xs in
        let len = Array.length all - pos in
        let keys = Array.make len 0 in
        M.keys fam ~src:all ~pos ~len ~dst:keys;
        let keyed = of_items fam c.xs and added = of_items fam c.xs in
        let same_flags = ref true in
        Array.iteri
          (fun j key ->
            if M.add_key keyed key <> M.add added all.(pos + j) then
              same_flags := false)
          keys;
        !same_flags && M.equal keyed added);
  ]

let fm_suite variant name =
  bitmap_suite name
    (module Fm : BITMAP_SKETCH with type family = Fm.family)
    (fun ~seed ->
      Fm.family_custom ~rng:(Rng.create seed) ~variant ~bitmaps:8)

(* The concentrated family and the Mle estimator mode run through the
   same generic suite: merge laws, distributed = centralized (including
   estimate equality — MLE merge-compatibility), duplicate insensitivity
   and batch = fold must hold for every family x estimator the eval grid
   exercises. *)
let fmc_suite est name =
  bitmap_suite name
    (module Fmc : BITMAP_SKETCH with type family = Fmc.family)
    (fun ~seed ->
      Fmc.with_estimator est
        (Fmc.family_custom ~rng:(Rng.create seed) ~buckets:8))

let fm_mle_suite =
  bitmap_suite "fm-stochastic-mle"
    (module Fm : BITMAP_SKETCH with type family = Fm.family)
    (fun ~seed ->
      Fm.with_estimator mle
        (Fm.family_custom ~rng:(Rng.create seed) ~variant:Fm.Stochastic
           ~bitmaps:8))

let bjkst_suite_with est name =
  bitmap_suite name
    (module Bjkst : BITMAP_SKETCH with type family = Bjkst.family)
    (fun ~seed ->
      Bjkst.with_estimator est (Bjkst.family_custom ~rng:(Rng.create seed) ~k:16))

let bjkst_suite = bjkst_suite_with Wd_sketch.Sketch_intf.Classic "bjkst"

let hll_suite_with est name =
  bitmap_suite name
    (module Hll : BITMAP_SKETCH with type family = Hll.family)
    (fun ~seed ->
      Hll.with_estimator est
        (Hll.family_custom ~rng:(Rng.create seed) ~registers:16))

let hll_suite = hll_suite_with Wd_sketch.Sketch_intf.Classic "hll"

(* The registry's fan-out sketch, on a private plane per family. *)
let fanout_suite est name =
  bitmap_suite name
    (module Fanout : BITMAP_SKETCH with type family = Fanout.family)
    (fun ~seed ->
      Fanout.with_estimator est
        (Fanout.family_custom
           ~plane:(Fanout.plane ~rng:(Rng.create seed) ())
           ~buckets:8))

(* ------------------------------------------------------------------ *)
(* Distinct sampler: algebra over (level, retained counts) *)

let sampler_family ~seed =
  Sampler.family ~rng:(Rng.create seed) ~threshold:16

let sampler_of fam items =
  let s = Sampler.create fam in
  List.iter (Sampler.add s) items;
  s

let sampler_state s =
  (Sampler.level s, List.sort compare (Sampler.contents s))

let sampler_merged fam a b =
  let dst = sampler_of fam a in
  Sampler.merge_into ~dst (sampler_of fam b);
  dst

let sampler_prop pname p =
  Prop.test_case ~shrink:shrink_case ~show:show_case
    ~name:(Printf.sprintf "sampler %s" pname)
    case_gen p

let sampler_suite =
  [
    sampler_prop "merge commutative" (fun c ->
        let fam = sampler_family ~seed:c.fam_seed in
        sampler_state (sampler_merged fam c.xs c.ys)
        = sampler_state (sampler_merged fam c.ys c.xs));
    sampler_prop "merge associative" (fun c ->
        let fam = sampler_family ~seed:c.fam_seed in
        let ab_c =
          let dst = sampler_merged fam c.xs c.ys in
          Sampler.merge_into ~dst (sampler_of fam c.zs);
          dst
        in
        let a_bc =
          let dst = sampler_of fam c.xs in
          Sampler.merge_into ~dst (sampler_merged fam c.ys c.zs);
          dst
        in
        sampler_state ab_c = sampler_state a_bc);
    sampler_prop "distributed = centralized" (fun c ->
        let fam = sampler_family ~seed:c.fam_seed in
        let m = sampler_merged fam c.xs c.ys in
        let whole = sampler_of fam (c.xs @ c.ys) in
        sampler_state m = sampler_state whole
        && Sampler.estimate_distinct m = Sampler.estimate_distinct whole);
    sampler_prop "tree-merged = centralized (depth >= 2)" (fun c ->
        (* Same hierarchical-merge law as the bitmap sketches, but with
           additive counts: each occurrence lands at exactly one site,
           so the root's retained (item, count) multiset must match one
           sampler over the whole stream. *)
        let module Topology = Wd_net.Topology in
        let fam = sampler_family ~seed:c.fam_seed in
        let all = c.xs @ c.ys @ c.zs in
        let items = Array.of_list all in
        let k = 4 in
        let topo = Topology.random ~seed:c.fam_seed ~sites:k in
        let site_sk = Array.init k (fun _ -> Sampler.create fam) in
        Array.iteri (fun j v -> Sampler.add site_sk.((j + v) mod k) v) items;
        let agg_sk =
          Array.init (Topology.aggs topo) (fun _ -> Sampler.create fam)
        in
        let root = Sampler.create fam in
        let merge_to parent sk =
          match parent with
          | Topology.Root -> Sampler.merge_into ~dst:root sk
          | Topology.Agg j -> Sampler.merge_into ~dst:agg_sk.(j) sk
        in
        for i = 0 to k - 1 do
          merge_to (Topology.site_parent topo i) site_sk.(i)
        done;
        for j = 0 to Topology.aggs topo - 1 do
          merge_to (Topology.agg_parent topo j) agg_sk.(j)
        done;
        let whole = sampler_of fam all in
        Topology.depth topo >= 2
        && sampler_state root = sampler_state whole
        && Sampler.estimate_distinct root = Sampler.estimate_distinct whole);
    sampler_prop "self-merge keeps support, doubles counts" (fun c ->
        let fam = sampler_family ~seed:c.fam_seed in
        let a = sampler_of fam c.xs in
        let doubled = sampler_merged fam c.xs c.xs in
        Sampler.level doubled = Sampler.level a
        && List.sort compare
             (List.map (fun (v, n) -> (v, 2 * n)) (Sampler.contents a))
           = List.sort compare (Sampler.contents doubled));
    sampler_prop "add_batch = fold add" (fun c ->
        let fam = sampler_family ~seed:c.fam_seed in
        let batched = Sampler.create fam in
        Sampler.add_batch batched (Array.of_list c.xs);
        sampler_state batched = sampler_state (sampler_of fam c.xs)
        && Sampler.estimate_distinct batched
           = Sampler.estimate_distinct (sampler_of fam c.xs));
    sampler_prop "add_batch = fold add across merges" (fun c ->
        let fam = sampler_family ~seed:c.fam_seed in
        let a = Sampler.create fam and b = Sampler.create fam in
        Sampler.add_batch a (Array.of_list c.xs);
        Sampler.add_batch b (Array.of_list c.ys);
        Sampler.merge_into ~dst:a b;
        Sampler.add_batch a (Array.of_list c.zs);
        let folded = sampler_merged fam (c.xs @ c.zs) c.ys in
        sampler_state a = sampler_state folded);
    sampler_prop "add_count ignores below-level items" (fun c ->
        (* Validates the absolute-count recovery refactor: replaying a
           count for an item the sampler has moved past never resurrects
           it. *)
        let fam = sampler_family ~seed:c.fam_seed in
        let s = sampler_of fam (c.xs @ c.ys) in
        let lvl = Sampler.level s in
        let before = sampler_state s in
        List.iter
          (fun v ->
            if Sampler.item_level s v < lvl then Sampler.add_count s v 3)
          c.zs;
        sampler_state s = before);
  ]

(* ------------------------------------------------------------------ *)
(* Trackers: observe_batch must be observationally identical to folding
   observe — same estimates, same byte ledger, same send counts — for
   every algorithm, or the batched simulator would not be a fast path but
   a different protocol. *)

module Dc = Wd_protocol.Dc_tracker
module Dc_fmc = Dc.Make (Fmc)
module Ds = Wd_protocol.Ds_tracker
module Network = Wd_net.Network

let tracker_sites = 3

(* Derive a (site, item) stream from a case: sites spread by position and
   value so every site sees duplicates and cross-site overlap occurs. *)
let case_stream c =
  let items = Array.of_list (c.xs @ c.ys) in
  let sites = Array.mapi (fun j v -> (j + v) mod tracker_sites) items in
  (sites, items)

let net_sig net =
  (Network.total_bytes net, Network.bytes_up net, Network.bytes_down net)

let tracker_prop pname p =
  Prop.test_case ~shrink:shrink_case ~show:show_case
    ~name:(Printf.sprintf "tracker %s" pname)
    case_gen p

let tracker_suite =
  [
    tracker_prop "dc observe_batch = fold observe" (fun c ->
        let sites, items = case_stream c in
        let n = Array.length items in
        List.for_all
          (fun alg ->
            let make () =
              let fam =
                Fm.family_custom ~rng:(Rng.create c.fam_seed)
                  ~variant:Fm.Stochastic ~bitmaps:8
              in
              Wd_protocol.Dc_tracker.Fm.create ~algorithm:alg ~theta:0.1
                ~sites:tracker_sites ~family:fam ()
            in
            let folded = make () in
            Array.iteri
              (fun j v ->
                Wd_protocol.Dc_tracker.Fm.observe folded ~site:sites.(j) v)
              items;
            let batched = make () in
            Wd_protocol.Dc_tracker.Fm.observe_batch batched ~sites ~items
              ~pos:0 ~len:n;
            let module T = Wd_protocol.Dc_tracker.Fm in
            T.estimate folded = T.estimate batched
            && net_sig (T.network folded) = net_sig (T.network batched)
            && T.sends folded = T.sends batched
            && T.updates folded = T.updates batched)
          Dc.all_algorithms);
    tracker_prop "dc fmc observe_batch = fold observe" (fun c ->
        (* Hashed keys: the stream spans several key blocks, the batch
           is fed as two slices (the second at [pos > 0]), and every
           algorithm runs once on a clean channel and once under a plan
           that drops messages and crashes site 1 across block edges. *)
        let module T = Dc_fmc in
        let items =
          Array.append
            (Array.of_list (c.xs @ c.ys @ c.zs))
            (Array.init 150 (fun i -> ((i * 37) + c.fam_seed) mod 151))
        in
        let sites = Array.mapi (fun j v -> (j + v) mod tracker_sites) items in
        let n = Array.length items in
        let split = 1 + List.length c.xs in
        List.for_all
          (fun (alg, spec) ->
            let make () =
              let fam =
                Fmc.family_custom ~rng:(Rng.create c.fam_seed) ~buckets:8
              in
              let t =
                T.create ~algorithm:alg ~theta:0.1 ~sites:tracker_sites
                  ~family:fam ()
              in
              Option.iter
                (fun spec ->
                  match Wd_net.Faults.of_spec ~seed:c.fam_seed spec with
                  | Ok plan -> Network.set_faults (T.network t) plan
                  | Error e -> failwith e)
                spec;
              t
            in
            let folded = make () in
            Array.iteri (fun j v -> T.observe folded ~site:sites.(j) v) items;
            let batched = make () in
            T.observe_batch batched ~sites ~items ~pos:0 ~len:split;
            T.observe_batch batched ~sites ~items ~pos:split ~len:(n - split);
            T.estimate folded = T.estimate batched
            && net_sig (T.network folded) = net_sig (T.network batched)
            && T.sends folded = T.sends batched
            && T.updates folded = T.updates batched
            && T.lost_updates folded = T.lost_updates batched
            && (spec = None || T.lost_updates batched > 0))
          (List.concat_map
             (fun alg -> [ (alg, None); (alg, Some "drop=0.1,crash=1:40:130") ])
             Dc.all_algorithms));
    tracker_prop "ds observe_batch = fold observe" (fun c ->
        (* The stream spans more than two 255-item hash blocks, the batch
           is fed as two slices (the second at [pos > 0]), and the
           threshold is small enough that the level rises inside a
           block.  Every algorithm runs on a clean channel, under drop
           and duplication (the quiet scan runs, and a site that missed
           a level broadcast keeps a lower level), and under drop and a
           crash of site 1 (every update is observed one by one, and
           updates are lost). *)
        let items =
          Array.append
            (Array.of_list (c.xs @ c.ys @ c.zs))
            (Array.init 700 (fun i -> ((i * 37) + c.fam_seed) mod 401))
        in
        let sites = Array.mapi (fun j v -> (j + v) mod tracker_sites) items in
        let n = Array.length items in
        let split = 1 + List.length c.xs in
        let crash = "drop=0.1,crash=1:40:130" in
        List.for_all
          (fun (alg, spec) ->
            let make () =
              let fam =
                Sampler.family ~rng:(Rng.create c.fam_seed) ~threshold:8
              in
              let t =
                Ds.create ~algorithm:alg ~theta:0.5 ~sites:tracker_sites
                  ~family:fam ()
              in
              Option.iter
                (fun spec ->
                  match Wd_net.Faults.of_spec ~seed:c.fam_seed spec with
                  | Ok plan -> Network.set_faults (Ds.network t) plan
                  | Error e -> failwith e)
                spec;
              t
            in
            let folded = make () in
            Array.iteri
              (fun j v -> Ds.observe folded ~site:sites.(j) v)
              items;
            let batched = make () in
            Ds.observe_batch batched ~sites ~items ~pos:0 ~len:split;
            Ds.observe_batch batched ~sites ~items ~pos:split ~len:(n - split);
            List.sort compare (Ds.sample folded)
            = List.sort compare (Ds.sample batched)
            && Ds.level folded = Ds.level batched
            && net_sig (Ds.network folded) = net_sig (Ds.network batched)
            && Ds.sends folded = Ds.sends batched
            && Ds.updates folded = Ds.updates batched
            && Ds.lost_updates folded = Ds.lost_updates batched
            && (spec <> Some crash || Ds.lost_updates batched > 0))
          (List.concat_map
             (fun alg ->
               [ (alg, None); (alg, Some "drop=0.1,dup=0.1"); (alg, Some crash) ])
             Ds.all_algorithms));
  ]

(* ------------------------------------------------------------------ *)
(* Tree topologies: the per-hop ledger laws.  On any random tree, under
   any mix of link loss and aggregator crashes, the bytes the root
   records as arriving must equal the sum of bytes delivered over the
   last-hop edges (no bytes appear from nowhere, none vanish after
   their final hop), and the whole-tree ledger must decompose into site
   links plus backbone.  A depth-1 explicit tree must be the flat star,
   bit for bit. *)

module Topology = Wd_net.Topology
module Faults = Wd_net.Faults

type tree_case = { base : case; topo_seed : int; fault_kind : int }

let tree_case_gen rng =
  {
    base = case_gen rng;
    topo_seed = Prop.int_range 0 10_000 rng;
    fault_kind = Prop.int_range 0 2 rng;
  }

let show_tree_case tc =
  Printf.sprintf "{topo_seed=%d; fault_kind=%d; base=%s}" tc.topo_seed
    tc.fault_kind (show_case tc.base)

let shrink_tree_case tc =
  List.map (fun base -> { tc with base }) (shrink_case tc.base)

(* Fault plans carry generator state, so every run builds a fresh one.
   Kind 0: clean; kind 1: lossy site links; kind 2: lossy links plus
   the first aggregator crashing over the middle of the run. *)
let tree_faults tc topo =
  match tc.fault_kind with
  | 0 -> Faults.none
  | kind -> (
    let spec =
      if kind = 1 then "drop=0.15"
      else
        Printf.sprintf "drop=0.1,crash=%d:10:60"
          (Topology.node_of_agg topo 0)
    in
    match Faults.of_spec ~seed:tc.topo_seed spec with
    | Ok p -> p
    | Error e -> failwith e)

let conservation_holds net topo =
  Network.root_bytes_in net
  = List.fold_left
      (fun acc node -> acc + Network.edge_delivered_up net ~node)
      0
      (Topology.last_hop_nodes topo)
  && Network.grand_total_bytes net
     = Network.total_bytes net + Network.backbone_bytes net

(* Each run helper returns (estimate, sends, net) so the flat-identity
   property can compare protocol output alongside the ledger. *)
let dc_tree_run ?topology ?faults c =
  let module T = Wd_protocol.Dc_tracker.Fm in
  let sites, items = case_stream c in
  let fam =
    Fm.family_custom ~rng:(Rng.create c.fam_seed) ~variant:Fm.Stochastic
      ~bitmaps:8
  in
  let t =
    T.create ~algorithm:Dc.LS ~theta:0.1 ~sites:tracker_sites ~family:fam ()
  in
  let net = T.network t in
  Network.set_debug_checks net true;
  Option.iter (Network.set_topology net) topology;
  Option.iter (Network.set_faults net) faults;
  Array.iteri (fun j v -> T.observe t ~site:sites.(j) v) items;
  (T.estimate t, T.sends t, net)

let ds_tree_run ?topology ?faults c =
  let sites, items = case_stream c in
  let fam = Sampler.family ~rng:(Rng.create c.fam_seed) ~threshold:16 in
  let t =
    Ds.create ~algorithm:Ds.GCS ~theta:0.5 ~sites:tracker_sites ~family:fam ()
  in
  let net = Ds.network t in
  Network.set_debug_checks net true;
  Option.iter (Network.set_topology net) topology;
  Option.iter (Network.set_faults net) faults;
  Array.iteri (fun j v -> Ds.observe t ~site:sites.(j) v) items;
  (Ds.estimate_distinct t, Ds.sends t, net)

let hh_tree_run ?topology ?faults c =
  let module Hh = Wd_aggregate.Distinct_hh.Tracked in
  let sites, items = case_stream c in
  let fam =
    Wd_aggregate.Fm_array.family
      ~rng:(Rng.create c.fam_seed)
      { Wd_aggregate.Fm_array.rows = 2; cols = 8; bitmaps = 6 }
  in
  let t =
    Hh.create ~algorithm:Dc.LS ~theta:0.3 ~sites:tracker_sites ~family:fam ()
  in
  let net = Hh.network t in
  Network.set_debug_checks net true;
  Option.iter (Network.set_topology net) topology;
  Option.iter (Network.set_faults net) faults;
  Array.iteri (fun j v -> Hh.observe t ~site:sites.(j) ~v ~w:1) items;
  (Hh.estimate t 0, Hh.sends t, net)

let topo_prop pname p =
  Prop.test_case ~shrink:shrink_tree_case ~show:show_tree_case
    ~name:(Printf.sprintf "topology %s" pname)
    tree_case_gen p

type tree_run =
  ?topology:Topology.t -> ?faults:Faults.plan -> case -> float * int * Network.t

let conservation_prop name (run : tree_run) =
  topo_prop
    (Printf.sprintf "%s per-hop conservation under faults" name)
    (fun tc ->
      let topo = Topology.random ~seed:tc.topo_seed ~sites:tracker_sites in
      let _, _, net =
        run ~topology:topo ~faults:(tree_faults tc topo) tc.base
      in
      Topology.depth topo >= 2 && conservation_holds net topo)

let flat_identity_prop name (run : tree_run) =
  topo_prop
    (Printf.sprintf "%s flat star = depth-1 tree bit-identically" name)
    (fun tc ->
      let spec =
        "edges:"
        ^ String.concat ","
            (List.init tracker_sites (Printf.sprintf "s%d>root"))
      in
      match Topology.of_spec ~sites:tracker_sites spec with
      | Error e -> failwith e
      | Ok depth1 ->
        Topology.is_flat depth1
        && Topology.depth depth1 = 1
        && Topology.equal depth1 (Topology.flat ~sites:tracker_sites)
        &&
        let e0, s0, net0 = run tc.base in
        let e1, s1, net1 = run ~topology:depth1 tc.base in
        e0 = e1 && s0 = s1
        && net_sig net0 = net_sig net1
        && Network.backbone_bytes net1 = 0
        && Network.grand_total_bytes net1 = Network.total_bytes net1)

let topology_suite =
  [
    topo_prop "random trees round-trip through spec" (fun tc ->
        let topo = Topology.random ~seed:tc.topo_seed ~sites:tracker_sites in
        match Topology.of_spec ~sites:tracker_sites (Topology.to_spec topo) with
        | Ok t -> Topology.equal t topo
        | Error e -> failwith e);
    conservation_prop "dc" dc_tree_run;
    conservation_prop "ds" ds_tree_run;
    conservation_prop "hh" hh_tree_run;
    flat_identity_prop "dc" dc_tree_run;
    flat_identity_prop "ds" ds_tree_run;
    flat_identity_prop "hh" hh_tree_run;
  ]

let () =
  Alcotest.run "properties"
    [
      ("fm-stochastic", fm_suite Fm.Stochastic "fm-stochastic");
      ("fm-averaged", fm_suite Fm.Averaged "fm-averaged");
      ("fm-stochastic-mle", fm_mle_suite);
      ("fmc", fmc_suite Wd_sketch.Sketch_intf.Classic "fmc");
      ("fmc-mle", fmc_suite mle "fmc-mle");
      ("bjkst", bjkst_suite);
      ("bjkst-mle", bjkst_suite_with mle "bjkst-mle");
      ("hll", hll_suite);
      ("hll-mle", hll_suite_with mle "hll-mle");
      ("fanout", fanout_suite Wd_sketch.Sketch_intf.Classic "fanout");
      ("fanout-mle", fanout_suite mle "fanout-mle");
      ("sampler", sampler_suite);
      ("tracker", tracker_suite);
      ("topology", topology_suite);
    ]
