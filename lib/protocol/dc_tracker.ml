module Network = Wd_net.Network
module Transport = Wd_net.Transport
module Transport_sim = Wd_net.Transport_sim
module Topology = Wd_net.Topology
module Faults = Wd_net.Faults
module Wire = Wd_net.Wire
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event

type algorithm = NS | SC | SS | LS | EC

let all_algorithms = [ NS; SC; SS; LS; EC ]

let approximate_algorithms = [ NS; SC; SS; LS ]

let algorithm_to_string = function
  | NS -> "NS"
  | SC -> "SC"
  | SS -> "SS"
  | LS -> "LS"
  | EC -> "EC"

let algorithm_of_string s =
  match String.uppercase_ascii s with
  | "NS" -> Some NS
  | "SC" -> Some SC
  | "SS" -> Some SS
  | "LS" -> Some LS
  | "EC" -> Some EC
  | _ -> None

module Make (Sketch : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) = struct
  type site_state = {
    mutable sk : Sketch.t;
    (* Local sketch.  Under NS/SC it summarizes only the local stream;
       under SS/LS it is the site's copy of the global sketch, into which
       local arrivals are also inserted.  Mutable so a crash can wipe it. *)
    mutable d_est : float; (* cached |sk| *)
    mutable d_last : float; (* D_i^t: |sk| when this site last sent *)
    mutable d0_known : float; (* D_0^t: last global estimate received *)
    pending : (int, unit) Hashtbl.t;
    (* Items whose insertion changed [sk] since the last send; shipping
       these verbatim reconstructs the site's contribution at the
       coordinator (Section 4.2 optimization). *)
    mutable pending_valid : bool;
    (* False once [pending] overflowed its space cap; the next send must
       ship the sketch itself. *)
    mutable coord_known : Sketch.t;
    (* Coordinator side: everything this site is known to hold — its past
       contributions plus (LS) the global sketches returned to it.  LS
       replies are priced as the delta against this model.  Must stay a
       subset of the site's real state, so it is wiped on crash and only
       grows again on acknowledged exchanges. *)
    seen : (int, unit) Hashtbl.t; (* EC only: exact local duplicate filter *)
    mutable down : bool;
    mutable down_since : int; (* update index of the crash transition *)
    mutable lost : int; (* arrivals discarded while down *)
  }

  (* One intermediate aggregator of a tree topology.  An aggregator
     holds only dedup memory — the union of everything it has forwarded
     toward the root — so a crash loses no protocol state: the sketch is
     wiped and subsequent contributions are simply forwarded in full
     again (more bytes, never a wrong answer), which is exactly the
     merge-idempotence argument that makes the protocols fault-safe. *)
  type agg_state = {
    mutable a_sk : Sketch.t; (* merged copies of forwarded contributions *)
    a_seen : (int, unit) Hashtbl.t; (* EC: exact forwarded-item filter *)
    mutable a_down : bool;
  }

  type t = {
    algorithm : algorithm;
    k : int;
    theta : float;
    family : Sketch.family;
    item_batching : bool;
    delta_replies : bool;
    pending_cap : int; (* max tracked pending items per site *)
    transport : Transport.t; (* the pluggable carrier all traffic rides *)
    net : Network.t; (* its ledger, cached for accounting reads *)
    site_states : site_state array;
    sk0 : Sketch.t; (* coordinator's merged sketch (unused by EC) *)
    mutable d0 : float; (* coordinator's current estimate *)
    exact : (int, unit) Hashtbl.t; (* EC only: coordinator's exact set *)
    max_retries : int;
    mutable sends : int;
    mutable updates : int;
    mutable sink : Sink.t; (* protocol-decision events; see Wd_obs *)
    mutable aggs : agg_state array;
    (* Tree aggregators, lazily sized to the ledger's installed topology
       (which may be set after tracker creation); empty for the star. *)
    block_keys : int array;
    (* [observe_batch]'s buffer: the sketch key of every item of the
       current block, filled by one {!Sketch.keys} call per block. *)
  }

  (* Items per key block.  The buffer is per-tracker state, so the block
     is small: 64 ints fill half a KiB, and 255 cost the view registry's
     state more for no faster feed. *)
  let key_block = 64

  let create ?(cost_model = Network.Unicast) ?network ?transport
      ?(item_batching = true) ?(delta_replies = true) ?(max_retries = 5)
      ?(sink = Sink.null) ~algorithm ~theta ~sites ~family () =
    if sites < 1 then invalid_arg "Dc_tracker.create: sites must be >= 1";
    if algorithm <> EC && theta <= 0.0 then
      invalid_arg "Dc_tracker.create: theta must be positive";
    let transport =
      match (transport, network) with
      | Some _, Some _ ->
        invalid_arg "Dc_tracker.create: pass ?network or ?transport, not both"
      | Some tr, None ->
        if Transport.sites tr <> sites then
          invalid_arg "Dc_tracker.create: shared transport has wrong site count";
        tr
      | None, Some net ->
        if Network.sites net <> sites then
          invalid_arg "Dc_tracker.create: shared network has wrong site count";
        Transport_sim.of_network net
      | None, None -> Transport_sim.create ~cost_model ~sites ()
    in
    let net = Transport.ledger transport in
    let fresh_site () =
      {
        sk = Sketch.create family;
        d_est = 0.0;
        d_last = 0.0;
        d0_known = 0.0;
        pending = Hashtbl.create 16;
        pending_valid = true;
        coord_known = Sketch.create family;
        seen = Hashtbl.create 16;
        down = false;
        down_since = 0;
        lost = 0;
      }
    in
    let sketch_bytes = Sketch.size_bytes (Sketch.create family) in
    {
      algorithm;
      k = sites;
      theta;
      family;
      item_batching;
      delta_replies;
      pending_cap = max 1 (sketch_bytes / Wire.item_bytes);
      transport;
      net;
      site_states = Array.init sites (fun _ -> fresh_site ());
      sk0 = Sketch.create family;
      d0 = 0.0;
      exact = Hashtbl.create 1024;
      max_retries;
      sends = 0;
      updates = 0;
      sink;
      aggs = [||];
      block_keys = Array.make key_block 0;
    }

  let algorithm t = t.algorithm
  let sites t = t.k
  let theta t = t.theta
  let network t = t.net
  let transport t = t.transport
  let sends t = t.sends
  let updates t = t.updates
  let set_sink t sink = t.sink <- sink

  let emit t kind =
    if Sink.enabled t.sink then
      Sink.emit t.sink { Event.time = t.updates; kind }

  (* The clock contract of {!Transport.S.set_time}: the update count
     reaches the transport only when something reads it.  Every call
     that can move a message takes its transport from [synced] (or its
     ledger from [synced_net]), so none goes out with a stale clock. *)
  let sync t = Transport.set_time t.transport t.updates

  let synced t =
    sync t;
    t.transport

  let synced_net t =
    sync t;
    t.net

  let site_down_for t i =
    let st = t.site_states.(i) in
    if st.down then t.updates - st.down_since else 0

  let lost_updates t =
    Array.fold_left (fun acc st -> acc + st.lost) 0 t.site_states

  let estimate t =
    match t.algorithm with
    | EC -> Float.of_int (Hashtbl.length t.exact)
    | NS | SC | SS | LS -> t.d0

  let site_estimate t i = t.site_states.(i).d_est

  let coordinator_sketch t =
    match t.algorithm with
    | EC -> None
    | NS | SC | SS | LS -> Some t.sk0

  let site_sketch t i =
    match t.algorithm with
    | EC -> None
    | NS | SC | SS | LS -> Some t.site_states.(i).sk

  (* The per-algorithm threshold skt(theta, k, D_0^t, D_i^t) of Figure 2. *)
  let send_threshold t st =
    let over = t.theta /. Float.of_int t.k in
    match t.algorithm with
    | NS -> st.d_last *. (1.0 +. over)
    | SC -> st.d_last +. (over *. st.d0_known)
    | SS | LS -> st.d0_known *. (1.0 +. over)
    | EC ->
      invalid_arg
        "Dc_tracker.send_threshold: exact algorithm EC has no send threshold"

  let site_send_threshold t i =
    if i < 0 || i >= t.k then
      invalid_arg "Dc_tracker.site_send_threshold: site index out of range";
    send_threshold t t.site_states.(i)

  let ensure_aggs t =
    match Network.tree_topology t.net with
    | None -> [||]
    | Some topo ->
      let a = Topology.aggs topo in
      if Array.length t.aggs <> a then
        t.aggs <-
          Array.init a (fun _ ->
              {
                a_sk = Sketch.create t.family;
                a_seen = Hashtbl.create 16;
                a_down = false;
              });
      t.aggs

  (* Walk the sender's backbone route after a delivered contribution: at
     each aggregator, merge the contribution into its dedup sketch and
     forward only what is genuinely new to it.  A hop that learns
     nothing forwards nothing and ends the walk — everything it just saw
     already passed through it (and, inductively, through every ancestor)
     on an earlier contribution.  This is the tree's bandwidth story:
     cross-site duplicates die at the lowest common aggregator instead
     of riding every hop to the root. *)
  let forward_through_tree t site st ~use_items =
    match
      match Network.tree_topology t.net with
      | None -> []
      | Some topo -> Topology.path_of_site topo site
    with
    | [] -> ()
    | path ->
      let aggs = ensure_aggs t in
      let continue = ref true in
      List.iter
        (fun j ->
          if !continue then begin
            let a = aggs.(j) in
            let payload =
              if use_items then begin
                let n_new =
                  Hashtbl.fold
                    (fun v () n -> if Sketch.add a.a_sk v then n + 1 else n)
                    st.pending 0
                in
                if n_new = 0 then None else Some (Wire.items n_new)
              end
              else begin
                let d = Sketch.delta_bytes ~from:a.a_sk st.sk in
                Sketch.merge_into ~dst:a.a_sk st.sk;
                if d = 0 then None
                else Some (min d (Sketch.size_bytes st.sk))
              end
            in
            match payload with
            | None -> continue := false
            | Some payload ->
              ignore (Network.forward_up (synced_net t) ~agg:j ~payload : bool)
          end)
        path

  (* EC's per-item analogue: forward the item only past aggregators that
     have never seen it. *)
  let forward_item_through_tree t site v =
    match
      match Network.tree_topology t.net with
      | None -> []
      | Some topo -> Topology.path_of_site topo site
    with
    | [] -> ()
    | path -> (
      let aggs = ensure_aggs t in
      try
        List.iter
          (fun j ->
            let a = aggs.(j) in
            if Hashtbl.mem a.a_seen v then raise Exit;
            Hashtbl.replace a.a_seen v ();
            ignore
              (Network.forward_up (synced_net t) ~agg:j
                 ~payload:Wire.item_bytes
                : bool))
          path
      with Exit -> ())

  let emit_sketch_sent t ~site ~payload ~items =
    if Sink.enabled t.sink then
      Sink.emit t.sink
        {
          Event.time = t.updates;
          kind =
            Event.Sketch_sent
              { site; bytes = Wire.message ~payload; items };
        }

  (* Ship site [i]'s contribution upstream: the accumulated new items if
     that is the cheaper encoding, else the whole local sketch.  With an
     enabled fault plan the send is acknowledged and retried
     ({!Network.reliable_up}); the coordinator merges only what actually
     arrived, and the site clears its send state only once the exchange
     is acknowledged — an unacknowledged site keeps its pending set and
     simply retriggers later, which is safe precisely because sketch
     merges are idempotent.  Returns the delivery outcome and whether the
     coordinator sketch changed. *)
  let deliver_contribution t i st =
    let n_pending = Hashtbl.length st.pending in
    let use_items =
      st.pending_valid && t.item_batching
      && Wire.items n_pending < Sketch.size_bytes st.sk
    in
    let payload, items =
      if use_items then (Wire.items n_pending, Some n_pending)
      else (Sketch.size_bytes st.sk, None)
    in
    let delivery =
      Transport.reliable_up ~max_retries:t.max_retries (synced t) ~site:i
        ~payload
    in
    emit_sketch_sent t ~site:i ~payload ~items;
    if delivery.Network.received then forward_through_tree t i st ~use_items;
    let changed =
      if not delivery.Network.received then false
      else if use_items then
        Hashtbl.fold
          (fun v () changed ->
            ignore (Sketch.add st.coord_known v : bool);
            Sketch.add t.sk0 v || changed)
          st.pending false
      else begin
        Sketch.merge_into ~dst:st.coord_known st.sk;
        let before = Sketch.copy t.sk0 in
        Sketch.merge_into ~dst:t.sk0 st.sk;
        not (Sketch.equal before t.sk0)
      end
    in
    if delivery.Network.acked then begin
      Hashtbl.reset st.pending;
      st.pending_valid <- true;
      st.d_last <- st.d_est
    end;
    t.sends <- t.sends + 1;
    (delivery, changed)

  (* The coordinator's reaction skm(i, Sk_0) of Figure 2.  Only runs when
     the sender's contribution was received; [acked] says whether the
     sender knows that.  Downstream state installs are gated on actual
     delivery, so a site behind a lossy link keeps a stale (never wrong)
     view and catches up on a later exchange. *)
  let coordinator_react t ~sender:i ~acked ~sk0_changed =
    let d0_old = t.d0 in
    t.d0 <- Sketch.estimate t.sk0;
    if t.d0 <> d0_old then
      emit t (Event.Estimate_update { previous = d0_old; estimate = t.d0 });
    match t.algorithm with
    | NS -> ()
    | SC ->
      if t.d0 <> d0_old then begin
        let outcomes =
          Transport.transmit_broadcast (synced t) ~except:None
            ~payload:Wire.count_bytes
        in
        Array.iteri
          (fun j st ->
            match outcomes.(j) with
            | Faults.Delivered n when n > 0 -> st.d0_known <- t.d0
            | Faults.Delivered _ | Faults.Lost _ -> ())
          t.site_states
      end
    | SS ->
      (* Sender's copy now equals Sk_0 (it just contributed everything it
         knew, and every earlier global change was broadcast to it), so it
         refreshes its own D_0^t locally — but only once it knows the
         contribution arrived; everyone else gets the sketch. *)
      let sender_st = t.site_states.(i) in
      if acked then sender_st.d0_known <- sender_st.d_est;
      if sk0_changed then begin
        let outcomes =
          Transport.transmit_broadcast (synced t) ~except:(Some i)
            ~payload:(Sketch.size_bytes t.sk0)
        in
        Array.iteri
          (fun j st ->
            if j <> i then begin
              match outcomes.(j) with
              | Faults.Delivered n when n > 0 ->
                Sketch.merge_into ~dst:st.sk t.sk0;
                st.d_est <- Sketch.estimate st.sk;
                st.d0_known <- t.d0
              | Faults.Delivered _ | Faults.Lost _ -> ()
            end)
          t.site_states
      end
    | LS ->
      let st = t.site_states.(i) in
      (* The coordinator knows exactly what the sender holds (it just
         received the site's full contribution on top of the last reply),
         so the reply can carry only the missing information when delta
         encoding is on. *)
      let payload =
        if t.delta_replies then
          min (Sketch.size_bytes t.sk0)
            (Sketch.delta_bytes ~from:st.coord_known t.sk0)
        else Sketch.size_bytes t.sk0
      in
      let reply =
        Transport.reliable_down ~max_retries:t.max_retries (synced t) ~site:i
          ~payload
      in
      emit t (Event.Resync { site = i; bytes = Wire.message ~payload });
      if reply.Network.received then begin
        Sketch.merge_into ~dst:st.sk t.sk0;
        st.d_est <- Sketch.estimate st.sk;
        st.d0_known <- t.d0
      end;
      if reply.Network.acked then begin
        (* Both ends saw the full exchange: they now agree exactly, and
           the coordinator may extend its model of the site.  (On a lost
           or unacknowledged reply the model stays a subset of the site's
           state, which keeps delta pricing lossless.) *)
        Sketch.merge_into ~dst:st.coord_known t.sk0;
        st.d_last <- st.d_est
      end
    | EC ->
      invalid_arg
        "Dc_tracker.coordinator_react: exact algorithm EC has no sketch \
         reaction"

  let observe_exact t ~site v =
    let st = t.site_states.(site) in
    if not (Hashtbl.mem st.seen v) then begin
      let delivery =
        Transport.reliable_up ~max_retries:t.max_retries (synced t) ~site
          ~payload:Wire.item_bytes
      in
      (* Remember the item only when the coordinator confirmed it; an
         unconfirmed item is resent on its next local arrival, and the
         coordinator's exact set absorbs any duplicates. *)
      if delivery.Network.acked then Hashtbl.replace st.seen v ();
      if delivery.Network.received then begin
        forward_item_through_tree t site v;
        if not (Hashtbl.mem t.exact v) then Hashtbl.replace t.exact v ()
      end;
      t.sends <- t.sends + 1
    end

  let wipe_site t st =
    st.sk <- Sketch.create t.family;
    st.coord_known <- Sketch.create t.family;
    Hashtbl.reset st.pending;
    st.pending_valid <- true;
    st.d_est <- 0.0;
    st.d_last <- 0.0;
    st.d0_known <- 0.0;
    Hashtbl.reset st.seen

  (* Re-seed a freshly restarted site from the coordinator, replaying the
     current global state rather than the lost per-message deltas. *)
  let resync_restarted t i st =
    match t.algorithm with
    | NS | EC -> () (* no downstream state to replay; the site restarts cold *)
    | SC ->
      let d =
        Transport.reliable_down ~max_retries:t.max_retries (synced t) ~site:i
          ~payload:Wire.count_bytes
      in
      if d.Network.received then st.d0_known <- t.d0
    | SS | LS ->
      let payload = Sketch.size_bytes t.sk0 in
      let d =
        Transport.reliable_down ~max_retries:t.max_retries (synced t) ~site:i
          ~payload
      in
      if d.Network.received then begin
        Sketch.merge_into ~dst:st.sk t.sk0;
        st.d_est <- Sketch.estimate st.sk;
        st.d0_known <- t.d0
      end;
      if d.Network.acked then begin
        Sketch.merge_into ~dst:st.coord_known t.sk0;
        st.d_last <- st.d_est
      end

  (* Aggregator crash transitions (fault-plan node [k + j]).  An
     aggregator holds only dedup memory — merged copies of contributions
     it already forwarded — so a crash loses no protocol state: wipe the
     memory and later contributions re-forward through it, which is safe
     because sketch merges are idempotent (the root just pays the hop
     again).  No resync traffic is ever needed. *)
  let scan_agg_crashes t =
    Array.iteri
      (fun j a ->
        let node = t.k + j in
        let now_down = Transport.site_down t.transport ~site:node in
        if now_down && not a.a_down then begin
          a.a_down <- true;
          a.a_sk <- Sketch.create t.family;
          Hashtbl.reset a.a_seen;
          emit t (Event.Crash { site = node })
        end
        else if (not now_down) && a.a_down then begin
          a.a_down <- false;
          emit t (Event.Recover { site = node; resync_bytes = 0 })
        end)
      (ensure_aggs t)

  let scan_crashes t =
    scan_agg_crashes t;
    Array.iteri
      (fun i st ->
        let now_down = Transport.site_down t.transport ~site:i in
        if now_down && not st.down then begin
          st.down <- true;
          st.down_since <- t.updates;
          (* Volatile state dies with the site; the coordinator's model of
             it must shrink to match (it now holds nothing). *)
          wipe_site t st;
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

  (* An arrival that changed site [site]'s sketch [st.sk]: refresh the
     cached estimate, remember the item for cheap shipping, and test the
     send threshold. *)
  let observe_changed t ~site st v =
    st.d_est <- Sketch.estimate st.sk;
    if st.pending_valid then
      if Hashtbl.length st.pending >= t.pending_cap then begin
        Hashtbl.reset st.pending;
        st.pending_valid <- false
      end
      else Hashtbl.replace st.pending v ();
    let threshold = send_threshold t st in
    if st.d_est > threshold then begin
      if Sink.enabled t.sink then
        Sink.emit t.sink
          {
            Event.time = t.updates;
            kind =
              Event.Threshold_crossed { site; estimate = st.d_est; threshold };
          };
      let delivery, sk0_changed = deliver_contribution t site st in
      if delivery.Network.received then
        coordinator_react t ~sender:site ~acked:delivery.Network.acked
          ~sk0_changed
    end

  (* One update with the crash-scan decision already made; [observe] and
     [observe_batch] share this body so their behaviour is identical
     update for update.  [keyed] says whether [key] holds [v]'s sketch key
     ({!Sketch.keys}): the batch hashes a block at a time and passes
     [true], [observe] passes [false] and [Sketch.add] hashes the item.
     Both call sites pass a constant, so the test folds away.  An update
     that leaves the local sketch as it was, the common case under
     duplication, calls nothing beyond the add. *)
  let[@inline] observe_one t ~crashes ~keyed ~site ~key v =
    t.updates <- t.updates + 1;
    if crashes then begin
      sync t;
      scan_crashes t
    end;
    let st = t.site_states.(site) in
    if st.down then
      (* A dead site observes nothing; the arrival is gone for good. *)
      st.lost <- st.lost + 1
    else begin
      match t.algorithm with
      | EC -> observe_exact t ~site v
      | NS | SC | SS | LS ->
        let changed =
          if keyed then Sketch.add_key st.sk key else Sketch.add st.sk v
        in
        if changed then observe_changed t ~site st v
    end

  let observe t ~site v =
    if site < 0 || site >= t.k then
      invalid_arg "Dc_tracker.observe: site index out of range";
    observe_one t
      ~crashes:(Faults.has_crashes (Network.faults t.net))
      ~keyed:false ~site ~key:0 v;
    sync t

  let observe_batch t ~sites ~items ~pos ~len =
    let n = Array.length sites in
    if Array.length items <> n then
      invalid_arg "Dc_tracker.observe_batch: sites/items length mismatch";
    if pos < 0 || len < 0 || pos + len > n then
      invalid_arg "Dc_tracker.observe_batch: slice out of range";
    (* Whether crash windows exist is a property of the installed fault
       plan, which cannot change mid-batch: hoist the test out of the
       per-update loop (with no plan this also skips the per-update
       crash scan entirely, as [observe] does). *)
    let crashes = Faults.has_crashes (Network.faults t.net) in
    let k = t.k in
    let keys = t.block_keys in
    (* EC hashes nothing, so it leaves the key buffer unread. *)
    let hashing =
      match t.algorithm with EC -> false | NS | SC | SS | LS -> true
    in
    (* Span timing wraps the whole batch (one recorder lookup per call,
       not per update), so the disabled cost on the hot path is a single
       option match per batch. *)
    let spans = Network.spans t.net in
    let start_ns =
      match spans with None -> 0L | Some r -> Wd_obs.Span.now r
    in
    let last = pos + len in
    let first = ref pos in
    while !first < last do
      let b = !first in
      let m = if last - b < key_block then last - b else key_block in
      (* Keys are a function of the family and the item alone, so a
         crash wipe or an LS reply inside the block leaves them valid. *)
      if hashing then Sketch.keys t.family ~src:items ~pos:b ~len:m ~dst:keys;
      for j = 0 to m - 1 do
        let site = Array.unsafe_get sites (b + j) in
        if site < 0 || site >= k then
          invalid_arg "Dc_tracker.observe_batch: site index out of range";
        observe_one t ~crashes ~keyed:true ~site
          ~key:(Array.unsafe_get keys j)
          (Array.unsafe_get items (b + j))
      done;
      first := b + m
    done;
    if len > 0 then sync t;
    match spans with
    | None -> ()
    | Some r ->
      ignore
        (Wd_obs.Span.finish r ~name:"observe_batch"
           ~time:(Network.time t.net) ~start_ns ()
          : Wd_obs.Span.ctx)

  let site_space_bytes t i =
    let st = t.site_states.(i) in
    match t.algorithm with
    | EC -> Wire.item_bytes * Hashtbl.length st.seen
    | NS | SC | SS | LS ->
      Sketch.size_bytes st.sk + (Wire.item_bytes * Hashtbl.length st.pending)

  let coordinator_space_bytes t =
    match t.algorithm with
    | EC -> Wire.item_bytes * Hashtbl.length t.exact
    | NS | SC | SS | LS ->
      Sketch.size_bytes t.sk0
      + (if t.delta_replies then
           Array.fold_left
             (fun acc st -> acc + Sketch.size_bytes st.coord_known)
             0 t.site_states
         else 0)

  (* The shared-surface view drivers dispatch over (Tracker_intf). *)
  module Generic = struct
    type nonrec t = t

    let kind = "dc"
    let algorithm_name t = algorithm_to_string t.algorithm
    let sites = sites
    let observe = observe
    let observe_batch = observe_batch
    let estimate = estimate
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
end

module Fm = Make (Wd_sketch.Fm)
