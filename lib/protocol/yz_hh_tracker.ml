module Network = Wd_net.Network
module Topology = Wd_net.Topology
module Transport = Wd_net.Transport
module Transport_sim = Wd_net.Transport_sim
module Faults = Wd_net.Faults
module Wire = Wd_net.Wire
module Space_saving = Wd_frequency.Space_saving
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event

type site_state = {
  counts : (int, int) Hashtbl.t; (* exact local occurrence counts *)
  last_sent : (int, int) Hashtbl.t; (* count at the item's last report *)
  mutable n_local : int; (* exact local total *)
  mutable n_sent : int; (* local total at the last total report *)
  mutable round_n : int; (* last round announcement received *)
  mutable down : bool;
  mutable down_since : int;
  mutable lost : int;
}

type t = {
  k : int;
  epsilon : float;
  top_k : int;
  transport : Transport.t;
  net : Network.t;
  site_states : site_state array;
  ss : Space_saving.t; (* coordinator top-k structure *)
  applied : (int, int) Hashtbl.t array;
  (* Per site: item -> the absolute local count already incorporated.
     Reports carry absolute counts, so retransmitted or duplicated
     copies re-derive a delta of zero — the same dedup discipline as
     {!Ds_tracker.applied}. *)
  applied_total : int array; (* per site: absolute local total applied *)
  mutable n_hat : int; (* coordinator's total-count estimate *)
  mutable round_n : int; (* current round threshold ~N *)
  max_retries : int;
  mutable sends : int;
  mutable updates : int;
  mutable sink : Sink.t;
}

let create ?(cost_model = Network.Unicast) ?network ?transport
    ?(max_retries = 5) ?(sink = Sink.null) ~epsilon ~top_k ~sites () =
  if sites < 1 then invalid_arg "Yz_hh_tracker.create: sites must be >= 1";
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Yz_hh_tracker.create: epsilon must be in (0,1)";
  if top_k < 1 then invalid_arg "Yz_hh_tracker.create: top_k must be >= 1";
  let transport =
    match (transport, network) with
    | Some _, Some _ ->
      invalid_arg "Yz_hh_tracker.create: pass ?network or ?transport, not both"
    | Some tr, None ->
      if Transport.sites tr <> sites then
        invalid_arg
          "Yz_hh_tracker.create: shared transport has wrong site count";
      tr
    | None, Some net ->
      if Network.sites net <> sites then
        invalid_arg "Yz_hh_tracker.create: shared network has wrong site count";
      Transport_sim.of_network net
    | None, None -> Transport_sim.create ~cost_model ~sites ()
  in
  let net = Transport.ledger transport in
  let fresh_site () =
    {
      counts = Hashtbl.create 64;
      last_sent = Hashtbl.create 64;
      n_local = 0;
      n_sent = 0;
      round_n = 1;
      down = false;
      down_since = 0;
      lost = 0;
    }
  in
  let capacity =
    Int.max top_k (int_of_float (Float.ceil (2.0 /. epsilon)))
  in
  {
    k = sites;
    epsilon;
    top_k;
    transport;
    net;
    site_states = Array.init sites (fun _ -> fresh_site ());
    ss = Space_saving.create ~capacity;
    applied = Array.init sites (fun _ -> Hashtbl.create 64);
    applied_total = Array.make sites 0;
    n_hat = 0;
    round_n = 1;
    max_retries;
    sends = 0;
    updates = 0;
    sink;
  }

let sites t = t.k
let epsilon t = t.epsilon
let network t = t.net
let transport t = t.transport
let sends t = t.sends
let updates t = t.updates
let set_sink t sink = t.sink <- sink
let total_estimate t = t.n_hat
let round t = t.round_n
let top t ~k = Space_saving.top t.ss ~k
let query t v = Space_saving.query t.ss v
let max_count_error t = Space_saving.max_error t.ss

let emit t kind =
  if Sink.enabled t.sink then Sink.emit t.sink { Event.time = t.updates; kind }

let site_down_for t i =
  let st = t.site_states.(i) in
  if st.down then t.updates - st.down_since else 0

let lost_updates t =
  Array.fold_left (fun acc st -> acc + st.lost) 0 t.site_states

(* [Hashtbl.find] and [Not_found], not [find_opt]: a hit builds no
   option, so an update that sends nothing allocates nothing. *)
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

(* The round's report threshold Delta = eps * ~N / (2k), floored at 1:
   each site's knowledge lag is < Delta per tracked quantity, so the
   coordinator's per-item and total lags stay within eps * N overall. *)
let delta_of t round_n =
  Int.max 1 (int_of_float (t.epsilon *. Float.of_int round_n /. (2.0 *. Float.of_int t.k)))

let site_send_threshold t i =
  if i < 0 || i >= t.k then
    invalid_arg "Yz_hh_tracker.site_send_threshold: site index out of range";
  Float.of_int (delta_of t t.site_states.(i).round_n)

(* Store-and-forward over a tree backbone: reports carry absolute
   per-site state no intermediate aggregator can merge away. *)
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

(* When the applied total crosses the doubling point, advance the round
   and announce the new ~N.  A site that misses the announcement keeps
   its smaller Delta — it merely reports more often than needed, never
   less, so the error bound is fault-safe. *)
let maybe_advance_round t =
  if t.n_hat >= 2 * t.round_n then begin
    while t.n_hat >= 2 * t.round_n do
      t.round_n <- t.round_n * 2
    done;
    emit t (Event.Level_advance { previous = 0; level = t.round_n });
    let outcomes =
      Transport.transmit_broadcast (synced t) ~except:None
        ~payload:Wire.count_bytes
    in
    Array.iteri
      (fun j (st : site_state) ->
        match outcomes.(j) with
        | Faults.Delivered n when n > 0 -> st.round_n <- t.round_n
        | Faults.Delivered _ | Faults.Lost _ -> ())
      t.site_states
  end

(* Ship one report: (item, absolute item count, absolute site total). *)
let report t site st v c =
  if Sink.enabled t.sink then
    emit t (Event.Count_sent { site; item = v; count = c; delta = c - find0 st.last_sent v });
  let payload = Wire.item_bytes + (2 * Wire.count_bytes) in
  let delivery =
    Transport.reliable_up ~max_retries:t.max_retries (synced t) ~site ~payload
  in
  t.sends <- t.sends + 1;
  if delivery.Network.acked then begin
    Hashtbl.replace st.last_sent v c;
    st.n_sent <- st.n_local
  end;
  if delivery.Network.received then begin
    forward_path t ~site ~payload;
    let applied = t.applied.(site) in
    let item_delta = c - find0 applied v in
    if item_delta > 0 then begin
      Space_saving.add t.ss ~count:item_delta v;
      Hashtbl.replace applied v c
    end;
    let total_delta = st.n_local - t.applied_total.(site) in
    if total_delta > 0 then begin
      t.n_hat <- t.n_hat + total_delta;
      t.applied_total.(site) <- st.n_local
    end;
    maybe_advance_round t
  end

let wipe_site st =
  Hashtbl.reset st.counts;
  Hashtbl.reset st.last_sent;
  st.n_local <- 0;
  st.n_sent <- 0

(* Re-seed a restarted site with the counts the coordinator has credited
   to it, so it resumes from there instead of silently undercounting. *)
let resync_restarted t i st =
  let tbl = t.applied.(i) in
  let payload =
    Wire.count_bytes + Wire.item_count_pairs (Hashtbl.length tbl)
  in
  let d =
    Transport.reliable_down ~max_retries:t.max_retries (synced t) ~site:i
      ~payload
  in
  if d.Network.received then begin
    Hashtbl.iter
      (fun v c ->
        Hashtbl.replace st.counts v c;
        Hashtbl.replace st.last_sent v c)
      tbl;
    st.n_local <- t.applied_total.(i);
    st.n_sent <- t.applied_total.(i);
    st.round_n <- t.round_n
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

let[@inline] observe_one t ~crashes ~site v =
  t.updates <- t.updates + 1;
  if crashes then begin
    sync t;
    scan_crashes t
  end;
  let st = t.site_states.(site) in
  if st.down then st.lost <- st.lost + 1
  else begin
    st.n_local <- st.n_local + 1;
    let c = find0 st.counts v + 1 in
    Hashtbl.replace st.counts v c;
    let d = delta_of t st.round_n in
    if c - find0 st.last_sent v >= d || st.n_local - st.n_sent >= d then
      report t site st v c
  end

let observe t ~site v =
  if site < 0 || site >= t.k then
    invalid_arg "Yz_hh_tracker.observe: site index out of range";
  observe_one t ~crashes:(Faults.has_crashes (Network.faults t.net)) ~site v;
  sync t

let observe_batch t ~sites ~items ~pos ~len =
  let n = Array.length sites in
  if Array.length items <> n then
    invalid_arg "Yz_hh_tracker.observe_batch: sites/items length mismatch";
  if pos < 0 || len < 0 || pos + len > n then
    invalid_arg "Yz_hh_tracker.observe_batch: slice out of range";
  let crashes = Faults.has_crashes (Network.faults t.net) in
  let k = t.k in
  for j = pos to pos + len - 1 do
    let site = Array.unsafe_get sites j in
    if site < 0 || site >= k then
      invalid_arg "Yz_hh_tracker.observe_batch: site index out of range";
    observe_one t ~crashes ~site (Array.unsafe_get items j)
  done;
  if len > 0 then sync t

let site_space_bytes t i =
  let st = t.site_states.(i) in
  Wire.item_count_pairs (Hashtbl.length st.counts + Hashtbl.length st.last_sent)
  + (2 * Wire.count_bytes)

let coordinator_space_bytes t =
  Wire.item_count_pairs (Space_saving.monitored t.ss)
  + (Wire.count_bytes * (1 + t.k))

(* The shared-surface view drivers dispatch over (Tracker_intf). *)
module Generic = struct
  type nonrec t = t

  let kind = "yzhh"
  let algorithm_name _ = "YZ"
  let sites = sites
  let observe = observe
  let observe_batch = observe_batch
  let estimate t = Float.of_int t.n_hat
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
