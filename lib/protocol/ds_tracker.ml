module Network = Wd_net.Network
module Topology = Wd_net.Topology
module Transport = Wd_net.Transport
module Transport_sim = Wd_net.Transport_sim
module Faults = Wd_net.Faults
module Wire = Wd_net.Wire
module Sampler = Wd_sketch.Distinct_sampler
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event

type algorithm = LCO | GCS | LCS | EDS

let all_algorithms = [ LCO; GCS; LCS; EDS ]

let approximate_algorithms = [ LCO; GCS; LCS ]

let algorithm_to_string = function
  | LCO -> "LCO"
  | GCS -> "GCS"
  | LCS -> "LCS"
  | EDS -> "EDS"

let algorithm_of_string s =
  match String.uppercase_ascii s with
  | "LCO" -> Some LCO
  | "GCS" -> Some GCS
  | "LCS" -> Some LCS
  | "EDS" -> Some EDS
  | _ -> None

type site_state = {
  counts : (int, int) Hashtbl.t; (* C_{v,i}: local count of retained items *)
  last_sent : (int, int) Hashtbl.t; (* C_{v,i}^t *)
  known_global : (int, int) Hashtbl.t; (* C_{v,0}^t (GCS/LCS) *)
  mutable level : int; (* latest l received from the coordinator *)
  mutable below : int; (* [Sampler.below_mask level], set with it *)
  mutable down : bool;
  mutable down_since : int; (* update index of the crash transition *)
  mutable lost : int; (* arrivals discarded while down *)
}

type t = {
  algorithm : algorithm;
  k : int;
  theta : float;
  family : Sampler.family;
  transport : Transport.t; (* the pluggable carrier all traffic rides *)
  net : Network.t; (* its ledger, cached for accounting reads *)
  site_states : site_state array;
  coord : Sampler.t; (* the simulated global sampler, with approx counts *)
  applied : (int, int) Hashtbl.t array;
  (* Per site: item -> the absolute local count this coordinator has
     already incorporated.  Count reports carry the absolute C_{v,i}, and
     the coordinator applies [c - applied] — so a retransmitted or
     duplicated report re-derives a delta of zero instead of double
     counting.  On a reliable channel [applied.(i)] always equals the
     site's [last_sent], reproducing the paper's delta protocol
     byte-for-byte. *)
  max_retries : int;
  mutable sends : int;
  mutable updates : int;
  mutable sink : Sink.t; (* protocol-decision events; see Wd_obs *)
  block_bits : int array;
  (* [observe_batch]'s buffer: the raw level bits of every item of the
     current block, filled by one {!Sampler.level_bits} call per block. *)
}

(* Items per hash block.  The buffer is per-tracker state, so the block
   is small: 255 ints and their header fill 2 KiB, and a 4096-item block
   ran no faster. *)
let bits_block = 255

let create ?(cost_model = Network.Unicast) ?network ?transport
    ?(max_retries = 5) ?(sink = Sink.null) ~algorithm ~theta ~sites ~family ()
    =
  if sites < 1 then invalid_arg "Ds_tracker.create: sites must be >= 1";
  if algorithm <> EDS && theta <= 0.0 then
    invalid_arg "Ds_tracker.create: theta must be positive";
  let transport =
    match (transport, network) with
    | Some _, Some _ ->
      invalid_arg "Ds_tracker.create: pass ?network or ?transport, not both"
    | Some tr, None ->
      if Transport.sites tr <> sites then
        invalid_arg "Ds_tracker.create: shared transport has wrong site count";
      tr
    | None, Some net ->
      if Network.sites net <> sites then
        invalid_arg "Ds_tracker.create: shared network has wrong site count";
      Transport_sim.of_network net
    | None, None -> Transport_sim.create ~cost_model ~sites ()
  in
  let net = Transport.ledger transport in
  let fresh_site () =
    {
      counts = Hashtbl.create 64;
      last_sent = Hashtbl.create 64;
      known_global = Hashtbl.create 64;
      level = 0;
      below = 0;
      down = false;
      down_since = 0;
      lost = 0;
    }
  in
  {
    algorithm;
    k = sites;
    theta;
    family;
    transport;
    net;
    site_states = Array.init sites (fun _ -> fresh_site ());
    coord = Sampler.create family;
    applied = Array.init sites (fun _ -> Hashtbl.create 64);
    max_retries;
    sends = 0;
    updates = 0;
    sink;
    block_bits = Array.make bits_block 0;
  }

let algorithm t = t.algorithm
let sites t = t.k
let theta t = t.theta
let threshold t = Sampler.threshold t.family
let network t = t.net
let transport t = t.transport
let sends t = t.sends
let updates t = t.updates
let set_sink t sink = t.sink <- sink
let sample t = Sampler.contents t.coord
let sample_size t = Sampler.size t.coord
let level t = Sampler.level t.coord
let estimate_distinct t = Sampler.estimate_distinct t.coord
let count t v = Sampler.count t.coord v

let emit t kind =
  if Sink.enabled t.sink then Sink.emit t.sink { Event.time = t.updates; kind }

let site_down_for t i =
  let st = t.site_states.(i) in
  if st.down then t.updates - st.down_since else 0

let lost_updates t =
  Array.fold_left (fun acc st -> acc + st.lost) 0 t.site_states

(* [v]'s binding, or 0 when it has none; no option is built. *)
let find0 table v = try Hashtbl.find table v with Not_found -> 0

(* The clock contract of {!Transport.S.set_time}: the update count
   reaches the transport only when something reads it.  Every call that
   can move a message takes its transport from [synced] (or its ledger
   from [synced_net]), so none goes out with a stale clock. *)
let sync t = Transport.set_time t.transport t.updates

let synced t =
  sync t;
  t.transport

let synced_net t =
  sync t;
  t.net

(* Drop every binding of [table] whose item is below level [l], in place
   (the bucket order, hence iteration order, is kept). *)
let prune_below t l table =
  Hashtbl.filter_map_inplace
    (fun v c -> if Sampler.item_level t.coord v < l then None else Some c)
    table

(* A site's level and the mask [observe_batch]'s scan tests against it
   change together, here and nowhere else. *)
let set_site_level st l =
  st.level <- l;
  st.below <- Sampler.below_mask l

(* Drop, at one site, every tracked item below the new level: the
   coordinator has announced it is no longer interested in them. *)
let raise_site_level t st l =
  if l > st.level then begin
    set_site_level st l;
    prune_below t l st.counts;
    prune_below t l st.last_sent;
    prune_below t l st.known_global
  end

(* If processing an update pushed the coordinator's sampler over T, its
   level moved: broadcast the new level eagerly (Section 5 argues this is
   the important step) and prune everywhere.  Under faults a site can
   miss the announcement; it keeps tracking below-level items the
   coordinator will simply ignore, until a later report triggers a level
   repair. *)
let propagate_level_change t old_level =
  let l = Sampler.level t.coord in
  if l > old_level then begin
    emit t (Event.Level_advance { previous = old_level; level = l });
    let outcomes =
      Transport.transmit_broadcast (synced t) ~except:None
        ~payload:Wire.level_bytes
    in
    Array.iteri
      (fun j st ->
        match outcomes.(j) with
        | Faults.Delivered n when n > 0 -> raise_site_level t st l
        | Faults.Delivered _ | Faults.Lost _ -> ())
      t.site_states;
    (* The coordinator itself forgets below-level items everywhere. *)
    Array.iter (prune_below t l) t.applied
  end

(* The per-algorithm threshold dst(theta, C_{v,i}^t, C_{v,0}^t) of Fig. 4.
   Inlined, so the update path compares it unboxed. *)
let[@inline] send_threshold t st v =
  match t.algorithm with
  | LCO -> (1.0 +. t.theta) *. Float.of_int (find0 st.last_sent v)
  | GCS | LCS ->
    Float.of_int (find0 st.last_sent v)
    +. (t.theta /. Float.of_int t.k *. Float.of_int (find0 st.known_global v))
  | EDS ->
    invalid_arg
      "Ds_tracker.send_threshold: exact algorithm EDS has no send threshold"

let site_send_threshold t i v =
  if i < 0 || i >= t.k then
    invalid_arg "Ds_tracker.site_send_threshold: site index out of range";
  send_threshold t t.site_states.(i) v

(* The coordinator's reaction dsm(i, v, C_{v,0}) of Fig. 4.  [acked]
   says whether the sender learned its report arrived; state installs on
   other sites are gated on actual delivery of the share. *)
let coordinator_react t ~sender:i ~acked v =
  match t.algorithm with
  | LCO -> ()
  | GCS ->
    (* The new global count goes to everyone; the sender reconstructs it
       locally from the delta it just contributed (so it only may do so
       once the exchange is acknowledged). *)
    let c0 = Sampler.count t.coord v in
    if c0 > 0 then begin
      let outcomes =
        Transport.transmit_broadcast (synced t) ~except:(Some i)
          ~payload:(Wire.item_bytes + Wire.count_bytes)
      in
      Array.iteri
        (fun j st ->
          if j = i then begin
            if acked then Hashtbl.replace st.known_global v c0
          end
          else begin
            match outcomes.(j) with
            | Faults.Delivered n when n > 0 ->
              Hashtbl.replace st.known_global v c0
            | Faults.Delivered _ | Faults.Lost _ -> ()
          end)
        t.site_states
    end
  | LCS ->
    let c0 = Sampler.count t.coord v in
    if c0 > 0 then begin
      let payload = Wire.item_bytes + Wire.count_bytes in
      let reply =
        Transport.reliable_down ~max_retries:t.max_retries (synced t) ~site:i
          ~payload
      in
      emit t (Event.Resync { site = i; bytes = Wire.message ~payload });
      if reply.Network.received then
        Hashtbl.replace t.site_states.(i).known_global v c0
    end
  | EDS ->
    invalid_arg
      "Ds_tracker.coordinator_react: exact algorithm EDS has no count \
       reaction"

(* A report about an item below the coordinator's current level means
   the site missed a level announcement (lossy broadcast): replay just
   the level so the site stops tracking pruned items. *)
let repair_site_level t ~site st =
  let l = Sampler.level t.coord in
  if st.level < l then begin
    let d =
      Transport.reliable_down ~max_retries:t.max_retries (synced t) ~site
        ~payload:Wire.level_bytes
    in
    emit t
      (Event.Resync { site; bytes = Wire.message ~payload:Wire.level_bytes });
    if d.Network.received then raise_site_level t st l
  end

(* Under a tree topology a delivered site report hops the backbone
   unchanged (store-and-forward): DS reports carry absolute per-site
   counts, which no intermediate aggregator can merge away, so the tree
   here is routing rather than dedup.  A crashed aggregator on the path
   swallows the frame ({!Network.forward_up} returns [false]); the
   absolute-count encoding already makes the retransmission harmless. *)
let forward_path t ~site ~payload =
  match Network.tree_topology t.net with
  | None -> ()
  | Some topo ->
    (try
       List.iter
         (fun j ->
           if not (Network.forward_up (synced_net t) ~agg:j ~payload) then
             raise Exit)
         (Topology.path_of_site topo site)
     with Exit -> ())

(* An arrival of [v] at [site], whose state is [st], with [v]'s level at
   or above the site's. *)
let observe_approx t ~site st v =
  let c = find0 st.counts v + 1 in
  Hashtbl.replace st.counts v c;
  let threshold = send_threshold t st v in
  if Float.of_int c > threshold then begin
    let delta = c - find0 st.last_sent v in
    if Sink.enabled t.sink then begin
      Sink.emit t.sink
        {
          Event.time = t.updates;
          kind =
            Event.Threshold_crossed
              { site; estimate = Float.of_int c; threshold };
        };
      Sink.emit t.sink
        {
          Event.time = t.updates;
          kind = Event.Count_sent { site; item = v; count = c; delta };
        }
    end;
    (* The report carries the absolute local count, so losing it or
       receiving it twice is harmless: the coordinator derives the
       delta against what it has already applied. *)
    let delivery =
      Transport.reliable_up ~max_retries:t.max_retries (synced t) ~site
        ~payload:(Wire.item_bytes + Wire.count_bytes)
    in
    t.sends <- t.sends + 1;
    if delivery.Network.acked then Hashtbl.replace st.last_sent v c;
    if delivery.Network.received then begin
      forward_path t ~site ~payload:(Wire.item_bytes + Wire.count_bytes);
      let applied = t.applied.(site) in
      let delta0 = c - find0 applied v in
      if delta0 > 0 then begin
        let old_level = Sampler.level t.coord in
        Sampler.add_count t.coord v delta0;
        Hashtbl.replace applied v c;
        coordinator_react t ~sender:site ~acked:delivery.Network.acked v;
        propagate_level_change t old_level
      end;
      if
        Faults.enabled (Network.faults t.net)
        && Sampler.item_level t.coord v < Sampler.level t.coord
      then repair_site_level t ~site st
    end
  end

(* EDS forwards every raw update; the sampler lives entirely at the
   coordinator so no level traffic is needed.  Under faults each logical
   update is applied at most once however many copies arrive — the
   sequence-number dedup a real deployment would perform. *)
let observe_exact t ~site v =
  let d =
    Transport.reliable_up ~max_retries:t.max_retries (synced t) ~site
      ~payload:Wire.item_bytes
  in
  t.sends <- t.sends + 1;
  if d.Network.received then begin
    forward_path t ~site ~payload:Wire.item_bytes;
    Sampler.add t.coord v
  end

let wipe_site st =
  Hashtbl.reset st.counts;
  Hashtbl.reset st.last_sent;
  Hashtbl.reset st.known_global;
  set_site_level st 0

(* Re-seed a freshly restarted site: replay the sampling level and the
   per-item counts the coordinator has credited to it, so the site
   resumes counting where the coordinator left off instead of from
   zero (which would silently undercount until it caught up). *)
let resync_restarted t i st =
  match t.algorithm with
  | EDS -> () (* sites are stateless under the exact baseline *)
  | LCO | GCS | LCS ->
    let tbl = t.applied.(i) in
    let payload =
      Wire.level_bytes + Wire.item_count_pairs (Hashtbl.length tbl)
    in
    let d =
      Transport.reliable_down ~max_retries:t.max_retries (synced t) ~site:i
        ~payload
    in
    if d.Network.received then begin
      set_site_level st (Sampler.level t.coord);
      Hashtbl.iter
        (fun v c ->
          if Sampler.item_level t.coord v >= st.level then begin
            Hashtbl.replace st.counts v c;
            Hashtbl.replace st.last_sent v c
          end)
        tbl
    end

let scan_crashes t =
  Array.iteri
    (fun i st ->
      let now_down = Transport.site_down t.transport ~site:i in
      if now_down && not st.down then begin
        st.down <- true;
        st.down_since <- t.updates;
        wipe_site st;
        emit t (Event.Crash { site = i })
      end
      else if (not now_down) && st.down then begin
        st.down <- false;
        let before = Network.total_bytes t.net in
        resync_restarted t i st;
        let resync_bytes = Network.total_bytes t.net - before in
        if resync_bytes > 0 then
          emit t (Event.Resync { site = i; bytes = resync_bytes });
        emit t (Event.Recover { site = i; resync_bytes })
      end)
    t.site_states

(* One update with the crash-scan decision already made; [observe] and
   [observe_batch] share this body so their behaviour is identical
   update for update.  The item's level is hashed only when the site is
   up and runs an approximate algorithm, and is compared exactly. *)
let[@inline] observe_one t ~crashes ~site v =
  t.updates <- t.updates + 1;
  if crashes then begin
    sync t;
    scan_crashes t
  end;
  let st = t.site_states.(site) in
  if st.down then st.lost <- st.lost + 1
  else begin
    match t.algorithm with
    | EDS -> observe_exact t ~site v
    | LCO | GCS | LCS ->
      if Sampler.item_level t.coord v >= st.level then
        observe_approx t ~site st v
  end

let observe t ~site v =
  if site < 0 || site >= t.k then
    invalid_arg "Ds_tracker.observe: site index out of range";
  observe_one t ~crashes:(Faults.has_crashes (Network.faults t.net)) ~site v;
  sync t

(* The index of the first update in [j, m) of the block at [b] that is
   not quiet, or [m]: a quiet update goes to a site that is in range and
   up, and its level bits show it below the site's level, so
   [observe_one] would only count it.  The scan calls nothing, so the
   loop keeps its values in registers.  Nothing changes a site's level
   or mask while it runs.  The mask test is exact up to level 63; at 64
   and above it errs toward "not quiet" (bits 0), which [observe_one]'s
   exact test then settles. *)
let rec skip_quiet states k sites b bits j m =
  if j >= m then m
  else begin
    let site = Array.unsafe_get sites (b + j) in
    if site < 0 || site >= k then j
    else begin
      let st = Array.unsafe_get states site in
      if st.down || Array.unsafe_get bits j land st.below = 0 then j
      else skip_quiet states k sites b bits (j + 1) m
    end
  end

let observe_batch t ~sites ~items ~pos ~len =
  let n = Array.length sites in
  if Array.length items <> n then
    invalid_arg "Ds_tracker.observe_batch: sites/items length mismatch";
  if pos < 0 || len < 0 || pos + len > n then
    invalid_arg "Ds_tracker.observe_batch: slice out of range";
  (* The installed fault plan cannot change mid-batch: hoist the
     crash-window test out of the per-update loop. *)
  let crashes = Faults.has_crashes (Network.faults t.net) in
  (* Crash plans scan for crashes and count lost updates on every
     update, and EDS sends every update: only the other runs skip. *)
  let scan = (not crashes) && t.algorithm <> EDS in
  let k = t.k and states = t.site_states in
  let bits = t.block_bits in
  (* One recorder lookup per batch: the disabled-span cost on the hot
     path is a single option match. *)
  let spans = Network.spans t.net in
  let start_ns = match spans with None -> 0L | Some r -> Wd_obs.Span.now r in
  let last = pos + len in
  let first = ref pos in
  while !first < last do
    let b = !first in
    let m = Int.min bits_block (last - b) in
    if scan then Sampler.level_bits t.coord ~src:items ~pos:b ~len:m ~dst:bits;
    let j = ref 0 in
    while !j < m do
      let q = if scan then skip_quiet states k sites b bits !j m else !j in
      (* The skipped updates are counted before the next one is
         observed, so its events carry the stamp per-update feeding
         gives them. *)
      t.updates <- t.updates + (q - !j);
      if q < m then begin
        let site = Array.unsafe_get sites (b + q) in
        if site < 0 || site >= k then
          invalid_arg "Ds_tracker.observe_batch: site index out of range";
        observe_one t ~crashes ~site (Array.unsafe_get items (b + q))
      end;
      j := q + 1
    done;
    first := b + m
  done;
  if len > 0 then sync t;
  match spans with
  | None -> ()
  | Some r ->
    ignore
      (Wd_obs.Span.finish r ~name:"observe_batch" ~time:(Network.time t.net)
         ~start_ns ()
        : Wd_obs.Span.ctx)

let site_space_bytes t i =
  let st = t.site_states.(i) in
  Wire.item_count_pairs
    (Hashtbl.length st.counts + Hashtbl.length st.last_sent
    + Hashtbl.length st.known_global)

let coordinator_space_bytes t = Sampler.size_bytes t.coord

(* The shared-surface view drivers dispatch over (Tracker_intf). *)
module Generic = struct
  type nonrec t = t

  let kind = "ds"
  let algorithm_name t = algorithm_to_string t.algorithm
  let sites = sites
  let observe = observe
  let observe_batch = observe_batch
  let estimate = estimate_distinct
  let site_send_threshold t ~site ~item = site_send_threshold t site item
  let updates = updates
  let sends = sends
  let lost_updates = lost_updates
  let site_down_for = site_down_for
  let set_sink = set_sink
  let network = network
  let transport = transport
end

let generic t = Tracker_intf.Tracker ((module Generic), t)
