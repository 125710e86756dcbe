module Network = Wd_net.Network
module Topology = Wd_net.Topology
module Transport = Wd_net.Transport
module Transport_sim = Wd_net.Transport_sim
module Faults = Wd_net.Faults
module Wire = Wd_net.Wire
module Tracker_intf = Wd_protocol.Tracker_intf
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event

type site_state = {
  seen : (int, unit) Hashtbl.t; (* items this site already shipped *)
  mutable batch : int list; (* locally-new items awaiting shipment *)
  mutable batch_len : int;
  mutable round_d : int; (* last round announcement received *)
  mutable down : bool;
  mutable down_since : int;
  mutable lost : int;
}

type t = {
  k : int;
  epsilon : float;
  universe : int; (* power of two; items are folded into [0, universe) *)
  mask : int;
  transport : Transport.t;
  net : Network.t;
  site_states : site_state array;
  coord : Distinct_quantiles.Centralized.t;
  mutable applied_distinct : float; (* coordinator distinct estimate cache *)
  mutable round_d : int; (* current round threshold ~D *)
  max_retries : int;
  mutable sends : int;
  mutable updates : int;
  mutable sink : Sink.t;
}

(* Communication never depends on this structure's size (sites ship raw
   item batches), so it is dimensioned for accuracy: the dyadic FM noise
   must stay well inside the epsilon rank budget. *)
let default_config =
  {
    Distinct_quantiles.default_config with
    Distinct_quantiles.cols = 4096;
    bitmaps = 128;
  }

let next_pow2 n =
  let r = ref 1 in
  while !r < n do
    r := !r * 2
  done;
  !r

let create ?(cost_model = Network.Unicast) ?network ?transport
    ?(max_retries = 5) ?(sink = Sink.null) ?(universe = 1 lsl 20)
    ?(config = default_config) ~rng ~epsilon ~sites () =
  if sites < 1 then
    invalid_arg "Yz_quantile_tracker.create: sites must be >= 1";
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Yz_quantile_tracker.create: epsilon must be in (0,1)";
  if universe < 2 then
    invalid_arg "Yz_quantile_tracker.create: universe must be >= 2";
  let transport =
    match (transport, network) with
    | Some _, Some _ ->
      invalid_arg
        "Yz_quantile_tracker.create: pass ?network or ?transport, not both"
    | Some tr, None ->
      if Transport.sites tr <> sites then
        invalid_arg
          "Yz_quantile_tracker.create: shared transport has wrong site count";
      tr
    | None, Some net ->
      if Network.sites net <> sites then
        invalid_arg
          "Yz_quantile_tracker.create: shared network has wrong site count";
      Transport_sim.of_network net
    | None, None -> Transport_sim.create ~cost_model ~sites ()
  in
  let net = Transport.ledger transport in
  let universe = next_pow2 universe in
  let family =
    Distinct_quantiles.family ~rng
      { config with Distinct_quantiles.universe }
  in
  let fresh_site () =
    {
      seen = Hashtbl.create 256;
      batch = [];
      batch_len = 0;
      round_d = 1;
      down = false;
      down_since = 0;
      lost = 0;
    }
  in
  {
    k = sites;
    epsilon;
    universe;
    mask = universe - 1;
    transport;
    net;
    site_states = Array.init sites (fun _ -> fresh_site ());
    coord = Distinct_quantiles.Centralized.create ~family;
    applied_distinct = 0.0;
    round_d = 1;
    max_retries;
    sends = 0;
    updates = 0;
    sink;
  }

let sites t = t.k
let epsilon t = t.epsilon
let universe t = t.universe
let network t = t.net
let transport t = t.transport
let sends t = t.sends
let updates t = t.updates
let set_sink t sink = t.sink <- sink
let round t = t.round_d
let clamp t v = (if v >= 0 then v else -v) land t.mask
let distinct t = Distinct_quantiles.Centralized.distinct t.coord
let rank t x = Distinct_quantiles.Centralized.rank t.coord x
let quantile t q = Distinct_quantiles.Centralized.quantile t.coord q
let median t = Distinct_quantiles.Centralized.median t.coord

let emit t kind =
  if Sink.enabled t.sink then Sink.emit t.sink { Event.time = t.updates; kind }

let site_down_for t i =
  let st = t.site_states.(i) in
  if st.down then t.updates - st.down_since else 0

let lost_updates t =
  Array.fold_left (fun acc st -> acc + st.lost) 0 t.site_states

(* The round's batch threshold Delta = eps * ~D / (2k): total unshipped
   distinct items across sites stay below eps * D / 2, so every rank the
   coordinator reports lags truth by at most that many items (on top of
   the dyadic structure's own sketching error). *)
let delta_of t round_d =
  Int.max 1
    (int_of_float
       (t.epsilon *. Float.of_int round_d /. (2.0 *. Float.of_int t.k)))

let site_send_threshold t i =
  if i < 0 || i >= t.k then
    invalid_arg
      "Yz_quantile_tracker.site_send_threshold: site index out of range";
  Float.of_int (delta_of t t.site_states.(i).round_d)

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

(* Store-and-forward over a tree backbone: a mid-route aggregator could
   in principle dedup items across subtrees, but the coordinator
   structure is already duplicate-resilient, so the reference protocol
   ships batches unchanged. *)
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

let maybe_advance_round t =
  let d = distinct t in
  t.applied_distinct <- d;
  if d >= 2.0 *. Float.of_int t.round_d then begin
    while Float.of_int t.round_d *. 2.0 <= d do
      t.round_d <- t.round_d * 2
    done;
    emit t (Event.Level_advance { previous = 0; level = t.round_d });
    let outcomes =
      Transport.transmit_broadcast (synced t) ~except:None
        ~payload:Wire.count_bytes
    in
    Array.iteri
      (fun j (st : site_state) ->
        match outcomes.(j) with
        | Faults.Delivered n when n > 0 -> st.round_d <- t.round_d
        | Faults.Delivered _ | Faults.Lost _ -> ())
      t.site_states
  end

(* Ship the accumulated batch of locally-new items.  Items are applied
   on delivery; the batch clears only on ack, so an unacknowledged site
   re-sends the same items later — harmless, because the coordinator
   structure is duplicate-resilient by construction. *)
let flush_batch t site st =
  if st.batch_len > 0 then begin
    let payload = Wire.items st.batch_len in
    if Sink.enabled t.sink then
      emit t
        (Event.Sketch_sent
           { site; bytes = Wire.message ~payload; items = Some st.batch_len });
    let delivery =
      Transport.reliable_up ~max_retries:t.max_retries (synced t) ~site
        ~payload
    in
    t.sends <- t.sends + 1;
    if delivery.Network.received then begin
      forward_path t ~site ~payload;
      List.iter
        (fun v -> Distinct_quantiles.Centralized.add t.coord v)
        st.batch;
      maybe_advance_round t
    end;
    if delivery.Network.acked then begin
      st.batch <- [];
      st.batch_len <- 0
    end
  end

let wipe_site st =
  Hashtbl.reset st.seen;
  st.batch <- [];
  st.batch_len <- 0

let scan_crashes t =
  Array.iteri
    (fun i st ->
      let now_down = Transport.site_down t.transport ~site:i in
      if now_down && not st.down then begin
        st.down <- true;
        st.down_since <- t.updates;
        (* The local dedup memory dies with the site.  No resync is
           needed: a restarted site may re-ship items it already sent,
           which the duplicate-resilient coordinator absorbs for free. *)
        wipe_site st;
        emit t (Event.Crash { site = i })
      end
      else if (not now_down) && st.down then begin
        st.down <- false;
        st.round_d <- t.round_d;
        emit t (Event.Recover { site = i; resync_bytes = 0 })
      end)
    t.site_states

let[@inline] observe_one t ~crashes ~site v =
  t.updates <- t.updates + 1;
  if crashes then begin
    sync t;
    scan_crashes t
  end;
  let st = t.site_states.(site) in
  if st.down then st.lost <- st.lost + 1
  else begin
    let v = clamp t v in
    if not (Hashtbl.mem st.seen v) then begin
      Hashtbl.replace st.seen v ();
      st.batch <- v :: st.batch;
      st.batch_len <- st.batch_len + 1;
      if st.batch_len >= delta_of t st.round_d then flush_batch t site st
    end
  end

let observe t ~site v =
  if site < 0 || site >= t.k then
    invalid_arg "Yz_quantile_tracker.observe: site index out of range";
  observe_one t ~crashes:(Faults.has_crashes (Network.faults t.net)) ~site v;
  sync t

let observe_batch t ~sites ~items ~pos ~len =
  let n = Array.length sites in
  if Array.length items <> n then
    invalid_arg "Yz_quantile_tracker.observe_batch: sites/items length mismatch";
  if pos < 0 || len < 0 || pos + len > n then
    invalid_arg "Yz_quantile_tracker.observe_batch: slice out of range";
  let crashes = Faults.has_crashes (Network.faults t.net) in
  let k = t.k in
  for j = pos to pos + len - 1 do
    let site = Array.unsafe_get sites j in
    if site < 0 || site >= k then
      invalid_arg "Yz_quantile_tracker.observe_batch: site index out of range";
    observe_one t ~crashes ~site (Array.unsafe_get items j)
  done;
  if len > 0 then sync t

(* The shared-surface view drivers dispatch over (Tracker_intf). *)
module Generic = struct
  type nonrec t = t

  let kind = "yzq"
  let algorithm_name _ = "YZ"
  let sites = sites
  let observe = observe
  let observe_batch = observe_batch
  let estimate = distinct
  let site_send_threshold t ~site ~item:_ = site_send_threshold t site
  let updates = updates
  let sends = sends
  let lost_updates = lost_updates
  let site_down_for = site_down_for
  let set_sink = set_sink
  let network = network
  let transport = transport
end

let generic t = Tracker_intf.Tracker ((module Generic), t)
