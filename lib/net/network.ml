module Sink = Wd_obs.Sink
module Event = Wd_obs.Event
module Span = Wd_obs.Span

type cost_model = Unicast | Radio_broadcast

let cost_model_to_string = function
  | Unicast -> "unicast"
  | Radio_broadcast -> "radio-broadcast"

type tap = {
  on_up : site:int -> payload:int -> lost:Faults.loss option -> unit;
  on_down : site:int -> payload:int -> lost:Faults.loss option -> unit;
  on_medium : payload:int -> unit;
}

type t = {
  k : int;
  model : cost_model;
  mutable bytes_up : int;
  mutable bytes_down : int;
  mutable messages_up : int;
  mutable messages_down : int;
  per_site_up : int array;
  per_site_down : int array;
  mutable medium : int;
  mutable sink : Sink.t;
  mutable time : int;
  mutable faults : Faults.plan;
  mutable debug_checks : bool;
  mutable link_drops : int;
  mutable corrupt_drops : int;
  mutable crash_drops : int;
  mutable dup_deliveries : int;
  mutable retry_count : int;
  mutable tap : tap option;
  mutable spans : Span.t option;
  (* Tree topology (None = the flat star).  Backbone counters live
     beside, not inside, [bytes_up]/[bytes_down]: site-link accounting,
     golden traces, and the wire reconciliation laws are untouched by
     installing a tree. *)
  mutable topo : Topology.t option;
  mutable paths : int array array; (* site -> aggregator route, first hop first *)
  mutable sub_count : int array; (* aggregator -> sites in its subtree *)
  mutable sub_sole : int array; (* the single such site when sub_count = 1 *)
  mutable last_hop : bool array; (* node -> is its parent the root? *)
  mutable agg_up : int array; (* bytes forwarded by each aggregator *)
  mutable agg_down : int array; (* bytes relayed down through each aggregator *)
  mutable backbone_up : int;
  mutable backbone_down : int;
  mutable backbone_msgs : int;
  mutable root_in : int; (* up-direction bytes that arrived at the root *)
  mutable up_delivered : int array; (* node -> delivered bytes on its parent edge *)
}

let create ?(cost_model = Unicast) ~sites () =
  if sites < 1 then invalid_arg "Network.create: sites must be >= 1";
  {
    k = sites;
    model = cost_model;
    bytes_up = 0;
    bytes_down = 0;
    messages_up = 0;
    messages_down = 0;
    per_site_up = Array.make sites 0;
    per_site_down = Array.make sites 0;
    medium = 0;
    sink = Sink.null;
    time = 0;
    faults = Faults.none;
    debug_checks = true;
    link_drops = 0;
    corrupt_drops = 0;
    crash_drops = 0;
    dup_deliveries = 0;
    retry_count = 0;
    tap = None;
    spans = None;
    topo = None;
    paths = Array.make sites [||];
    sub_count = [||];
    sub_sole = [||];
    last_hop = Array.make sites true;
    agg_up = [||];
    agg_down = [||];
    backbone_up = 0;
    backbone_down = 0;
    backbone_msgs = 0;
    root_in = 0;
    up_delivered = Array.make sites 0;
  }

let sites t = t.k
let cost_model t = t.model

let set_sink t sink = t.sink <- sink
let sink t = t.sink
let set_time t time = t.time <- time
let time t = t.time

let set_faults t plan = t.faults <- plan
let faults t = t.faults
let set_debug_checks t on = t.debug_checks <- on

let site_down t ~site = Faults.is_down t.faults ~site ~time:t.time
let set_tap t tap = t.tap <- tap
let set_spans t spans = t.spans <- spans
let spans t = t.spans

(* ------------------------------------------------------------------ *)
(* Tree topology. *)

let set_topology t topo =
  if Topology.sites topo <> t.k then
    invalid_arg "Network.set_topology: topology sites mismatch";
  let a = Topology.aggs topo in
  if Topology.is_flat topo then begin
    t.topo <- None;
    t.paths <- Array.make t.k [||];
    t.sub_count <- [||];
    t.sub_sole <- [||];
    t.last_hop <- Array.make t.k true;
    t.agg_up <- [||];
    t.agg_down <- [||];
    t.up_delivered <- Array.make t.k 0
  end
  else begin
    t.topo <- Some topo;
    t.paths <-
      Array.init t.k (fun i -> Array.of_list (Topology.path_of_site topo i));
    let sub_count = Array.make a 0 and sub_sole = Array.make a (-1) in
    Array.iteri
      (fun site path ->
        Array.iter
          (fun j ->
            sub_count.(j) <- sub_count.(j) + 1;
            sub_sole.(j) <- site)
          path)
      t.paths;
    t.sub_count <- sub_count;
    t.sub_sole <- sub_sole;
    t.last_hop <-
      Array.init (t.k + a) (fun node ->
          if node < t.k then Topology.site_parent topo node = Topology.Root
          else Topology.agg_parent topo (node - t.k) = Topology.Root);
    t.agg_up <- Array.make a 0;
    t.agg_down <- Array.make a 0;
    t.up_delivered <- Array.make (t.k + a) 0
  end;
  t.backbone_up <- 0;
  t.backbone_down <- 0;
  t.backbone_msgs <- 0;
  t.root_in <- 0

let topology t =
  match t.topo with Some tp -> tp | None -> Topology.flat ~sites:t.k

let tree_topology t = t.topo

let[@inline] agg_node_down t j =
  Faults.is_down t.faults ~site:(t.k + j) ~time:t.time

(* Any dead aggregator on [site]'s route to the root?  Pure schedule
   lookup — consumes no randomness — so runs without aggregator crash
   windows are bit-identical to the flat star. *)
let path_blocked t site =
  t.topo <> None
  && Faults.has_crashes t.faults
  && Array.exists (fun j -> agg_node_down t j) t.paths.(site)

(* One delivered up-direction frame cleared [node]'s edge toward its
   parent; a frame whose parent is the root arrived at the coordinator.
   [root_in] accumulates via the parent lookup while [up_delivered] is
   summed per edge over [last_hop] — two independent walks of the
   topology that the conservation law (and [check_ledger]) cross-check. *)
let note_up_delivered t ~node ~bytes =
  t.up_delivered.(node) <- t.up_delivered.(node) + bytes;
  let parent_is_root =
    match t.topo with
    | None -> true
    | Some tp ->
      if node < t.k then Topology.site_parent tp node = Topology.Root
      else Topology.agg_parent tp (node - t.k) = Topology.Root
  in
  if parent_is_root then t.root_in <- t.root_in + bytes

(* Tap helpers: fire once per charged message copy.  Taps observe the
   ledger, never steer it — no randomness, no counter writes — so an
   installed tap cannot perturb a run.  With a span recorder attached,
   each charged copy becomes a span wrapped around the tap call — under
   the stream carrier the tap is where the real I/O happens, so the
   span measures the wire, and any spans the transport emits inside it
   (request/reply halves) become its children via [current_parent]. *)
let[@inline] tap_timed t ~name ~site run =
  match t.spans with
  | None -> run ()
  | Some r ->
    let start_ns = Span.now r in
    let id = Span.fresh_id r in
    let parent = Span.current_parent r in
    Span.set_current_parent r id;
    run ();
    Span.set_current_parent r parent;
    ignore
      (Span.finish r ~name ?site ~parent ~span_id:id ~time:t.time ~start_ns ()
        : Span.ctx)

let tap_up t ~site ~payload ~lost =
  tap_timed t ~name:"message.up" ~site:(Some site) (fun () ->
      match t.tap with None -> () | Some tap -> tap.on_up ~site ~payload ~lost)

let tap_down t ~site ~payload ~lost =
  tap_timed t ~name:"message.down" ~site:(Some site) (fun () ->
      match t.tap with
      | None -> ()
      | Some tap -> tap.on_down ~site ~payload ~lost)

let tap_medium t ~payload =
  tap_timed t ~name:"broadcast" ~site:None (fun () ->
      match t.tap with None -> () | Some tap -> tap.on_medium ~payload)

let check_site t site =
  if site < 0 || site >= t.k then invalid_arg "Network: site index out of range"

(* The down-side ledger invariant: every byte the coordinator sends lands
   either on one site's point-to-point link or on the shared radio medium
   (never both, never neither). *)
let check_ledger t =
  if t.debug_checks then begin
    let site_down_sum = Array.fold_left ( + ) 0 t.per_site_down in
    assert (t.bytes_down = t.medium + site_down_sum);
    (* Per-hop conservation under a tree: bytes that arrived at the root
       equal the delivered bytes summed over last-hop edges, and the
       backbone totals are exactly the per-aggregator sums. *)
    if t.topo <> None then begin
      assert (t.backbone_up = Array.fold_left ( + ) 0 t.agg_up);
      assert (t.backbone_down = Array.fold_left ( + ) 0 t.agg_down)
    end;
    let root_sum = ref 0 in
    Array.iteri
      (fun node delivered ->
        if t.last_hop.(node) then root_sum := !root_sum + delivered)
      t.up_delivered;
    assert (t.root_in = !root_sum)
  end

let emit t kind =
  if Sink.enabled t.sink then Sink.emit t.sink { Event.time = t.time; kind }

let note_loss t (loss : Faults.loss) =
  match loss with
  | Link_drop -> t.link_drops <- t.link_drops + 1
  | Corrupt_drop -> t.corrupt_drops <- t.corrupt_drops + 1
  | Crash_drop -> t.crash_drops <- t.crash_drops + 1

(* Charge one backbone edge: the frame left aggregator [j]'s parent and
   crossed the wire into [j] (or, for [dir = Up], left [j] toward its
   parent).  Backbone links are the reliable CDN backbone — only crash
   windows can kill a frame, never drop/duplicate/corrupt rolls — so no
   randomness is consumed here.  Backbone charges are never tapped:
   aggregation is logical (it lives in the coordinator's trackers), so
   the transports' real wires still carry exactly the site-link frames. *)
let charge_backbone t ~dir ~j ~payload ~bytes =
  (match dir with
  | Event.Up ->
    t.backbone_up <- t.backbone_up + bytes;
    t.agg_up.(j) <- t.agg_up.(j) + bytes
  | Event.Down ->
    t.backbone_down <- t.backbone_down + bytes;
    t.agg_down.(j) <- t.agg_down.(j) + bytes);
  t.backbone_msgs <- t.backbone_msgs + 1;
  emit t (Event.Forward { dir; node = t.k + j; payload; bytes })

(* Walk the coordinator→[site] backbone top-down, charging each edge
   until a dead aggregator swallows the frame (the edge *into* the dead
   aggregator is still charged: its parent did transmit).  Returns
   [true] when the frame cleared every backbone hop — always, without
   aggregator crash windows. *)
let charge_down_path t ~site ~payload =
  if t.topo = None then true
  else begin
    let path = t.paths.(site) in
    let n = Array.length path in
    if n = 0 then true
    else begin
      let bytes = Wire.message ~payload in
      let has_crash = Faults.has_crashes t.faults in
      let cleared = ref true in
      let i = ref (n - 1) in
      while !cleared && !i >= 0 do
        let j = path.(!i) in
        charge_backbone t ~dir:Event.Down ~j ~payload ~bytes;
        if has_crash && agg_node_down t j then cleared := false else decr i
      done;
      !cleared
    end
  end

(* Backbone edges for one coordinator broadcast under {!Unicast}: each
   tree edge carries exactly one copy, pruned below dead aggregators and
   below subtrees with no recipient. *)
let charge_broadcast_backbone t ~except ~payload =
  match t.topo with
  | None -> ()
  | Some tp ->
    let a = Topology.aggs tp in
    let bytes = Wire.message ~payload in
    let has_crash = Faults.has_crashes t.faults in
    (* reaches.(p): the frame comes out of aggregator [p] — everything
       above [p] is alive and so is [p].  0 unknown / 1 yes / 2 no. *)
    let state = Array.make a 0 in
    let rec reaches p =
      match state.(p) with
      | 1 -> true
      | 2 -> false
      | _ ->
        let above =
          match Topology.agg_parent tp p with
          | Topology.Root -> true
          | Topology.Agg q -> reaches q
        in
        let ok = above && not (has_crash && agg_node_down t p) in
        state.(p) <- (if ok then 1 else 2);
        ok
    in
    for j = 0 to a - 1 do
      let recipients_below =
        t.sub_count.(j) > 1
        || (t.sub_count.(j) = 1 && Some t.sub_sole.(j) <> except)
      in
      let parent_reaches =
        match Topology.agg_parent tp j with
        | Topology.Root -> true
        | Topology.Agg q -> reaches q
      in
      if recipients_below && parent_reaches then
        charge_backbone t ~dir:Event.Down ~j ~payload ~bytes
    done

let send_up t ~site ~payload =
  check_site t site;
  let bytes = Wire.message ~payload in
  t.bytes_up <- t.bytes_up + bytes;
  t.messages_up <- t.messages_up + 1;
  t.per_site_up.(site) <- t.per_site_up.(site) + bytes;
  note_up_delivered t ~node:site ~bytes;
  tap_up t ~site ~payload ~lost:None;
  if Sink.enabled t.sink then
    Sink.emit t.sink
      {
        Event.time = t.time;
        kind = Event.Message { dir = Event.Up; site; payload; bytes };
      }

(* Site-link half of a down send: exactly the seed's flat-star recorder.
   The public [send_down] prepends the backbone walk when a tree is
   installed. *)
let send_down_link t ~site ~payload =
  check_site t site;
  let bytes = Wire.message ~payload in
  t.bytes_down <- t.bytes_down + bytes;
  t.messages_down <- t.messages_down + 1;
  t.per_site_down.(site) <- t.per_site_down.(site) + bytes;
  tap_down t ~site ~payload ~lost:None;
  check_ledger t;
  if Sink.enabled t.sink then
    Sink.emit t.sink
      {
        Event.time = t.time;
        kind = Event.Message { dir = Event.Down; site; payload; bytes };
      }

let send_down t ~site ~payload =
  (* Plain recorders assume the reliable channel, where no aggregator is
     ever down, so the walk always clears. *)
  ignore (charge_down_path t ~site ~payload : bool);
  send_down_link t ~site ~payload

let broadcast_down t ~except ~payload =
  if t.model = Unicast then charge_broadcast_backbone t ~except ~payload;
  let bytes = Wire.message ~payload in
  let recipients = t.k - (match except with Some _ -> 1 | None -> 0) in
  match t.model with
  | Unicast ->
    for site = 0 to t.k - 1 do
      if Some site <> except then begin
        t.bytes_down <- t.bytes_down + bytes;
        t.messages_down <- t.messages_down + 1;
        t.per_site_down.(site) <- t.per_site_down.(site) + bytes;
        tap_down t ~site ~payload ~lost:None
      end
    done;
    check_ledger t;
    if Sink.enabled t.sink && recipients > 0 then
      Sink.emit t.sink
        {
          Event.time = t.time;
          kind =
            Event.Broadcast
              {
                except;
                payload;
                bytes = recipients * bytes;
                messages = recipients;
                recipients;
              };
        }
  | Radio_broadcast ->
    (* One transmission reaches everyone; it occupies the shared medium
       once and is charged to no individual site. *)
    t.bytes_down <- t.bytes_down + bytes;
    t.messages_down <- t.messages_down + 1;
    t.medium <- t.medium + bytes;
    tap_medium t ~payload;
    check_ledger t;
    if Sink.enabled t.sink then
      Sink.emit t.sink
        {
          Event.time = t.time;
          kind =
            Event.Broadcast { except; payload; bytes; messages = 1; recipients };
        }

(* Fault-aware delivery.  With a disabled plan these degrade to the plain
   [send_*] above — same charges, same events, no randomness consumed —
   so fault-free runs stay byte-identical to the reliable simulator. *)

let transmit_up t ~site ~payload =
  if not (Faults.enabled t.faults) then begin
    send_up t ~site ~payload;
    Faults.Delivered 1
  end
  else begin
    check_site t site;
    let bytes = Wire.message ~payload in
    let outcome = Faults.roll t.faults ~site ~time:t.time in
    (* Reinterpret a delivered link roll as a crash loss when a dead
       aggregator sits on the route: the frame cleared its first link,
       then died at the aggregator.  The roll above consumed exactly the
       randomness it always did, so runs without aggregator crash
       windows are untouched. *)
    let outcome =
      match outcome with
      | Faults.Delivered _ when path_blocked t site ->
        Faults.Lost Faults.Crash_drop
      | o -> o
    in
    (* The attempt occupies the uplink whether or not it arrives. *)
    t.bytes_up <- t.bytes_up + bytes;
    t.messages_up <- t.messages_up + 1;
    t.per_site_up.(site) <- t.per_site_up.(site) + bytes;
    (match outcome with
    | Faults.Delivered n ->
      tap_up t ~site ~payload ~lost:None;
      emit t (Event.Message { dir = Event.Up; site; payload; bytes });
      if n > 1 then begin
        let copies = n - 1 in
        let extra = copies * bytes in
        t.bytes_up <- t.bytes_up + extra;
        t.messages_up <- t.messages_up + copies;
        t.per_site_up.(site) <- t.per_site_up.(site) + extra;
        t.dup_deliveries <- t.dup_deliveries + copies;
        for _ = 1 to copies do
          tap_up t ~site ~payload ~lost:None
        done;
        emit t (Event.Duplicate { dir = Event.Up; site; bytes = extra; copies })
      end;
      note_up_delivered t ~node:site ~bytes:(n * bytes)
    | Faults.Lost loss ->
      note_loss t loss;
      tap_up t ~site ~payload ~lost:(Some loss);
      emit t (Event.Drop { dir = Event.Up; site; bytes; loss }));
    outcome
  end

(* Site-link half of a faulted down transmission (see [send_down_link]). *)
let transmit_down_link t ~site ~payload =
  if not (Faults.enabled t.faults) then begin
    send_down_link t ~site ~payload;
    Faults.Delivered 1
  end
  else begin
    check_site t site;
    let bytes = Wire.message ~payload in
    let outcome = Faults.roll t.faults ~site ~time:t.time in
    t.bytes_down <- t.bytes_down + bytes;
    t.messages_down <- t.messages_down + 1;
    t.per_site_down.(site) <- t.per_site_down.(site) + bytes;
    (match outcome with
    | Faults.Delivered n ->
      tap_down t ~site ~payload ~lost:None;
      emit t (Event.Message { dir = Event.Down; site; payload; bytes });
      if n > 1 then begin
        let copies = n - 1 in
        let extra = copies * bytes in
        t.bytes_down <- t.bytes_down + extra;
        t.messages_down <- t.messages_down + copies;
        t.per_site_down.(site) <- t.per_site_down.(site) + extra;
        t.dup_deliveries <- t.dup_deliveries + copies;
        for _ = 1 to copies do
          tap_down t ~site ~payload ~lost:None
        done;
        emit t
          (Event.Duplicate { dir = Event.Down; site; bytes = extra; copies })
      end
    | Faults.Lost loss ->
      note_loss t loss;
      tap_down t ~site ~payload ~lost:(Some loss);
      emit t (Event.Drop { dir = Event.Down; site; bytes; loss }));
    check_ledger t;
    outcome
  end

let transmit_down t ~site ~payload =
  if charge_down_path t ~site ~payload then transmit_down_link t ~site ~payload
  else begin
    (* Swallowed by a dead aggregator: the site link never saw the
       frame — no site-link charge, no link roll.  [bytes = 0] follows
       the radio reception-loss convention: the charge lives elsewhere
       (here, on the backbone edges the walk did record). *)
    note_loss t Faults.Crash_drop;
    emit t
      (Event.Drop { dir = Event.Down; site; bytes = 0; loss = Faults.Crash_drop });
    Faults.Lost Faults.Crash_drop
  end

let transmit_broadcast t ~except ~payload =
  if not (Faults.enabled t.faults) then begin
    broadcast_down t ~except ~payload;
    Array.init t.k (fun site ->
        if Some site = except then Faults.Delivered 0 else Faults.Delivered 1)
  end
  else begin
    match t.model with
    | Unicast ->
      (* Per-recipient links fail independently, so a faulted unicast
         broadcast decomposes into per-recipient transmissions (and its
         trace into per-recipient events the summary can reconcile).
         Under a tree the backbone edges are charged once for the whole
         broadcast — each tree edge carries one copy — and sites below a
         dead aggregator never see their site-link frame. *)
      charge_broadcast_backbone t ~except ~payload;
      let out = Array.make t.k (Faults.Delivered 0) in
      for site = 0 to t.k - 1 do
        if Some site <> except then
          if path_blocked t site then begin
            note_loss t Faults.Crash_drop;
            emit t
              (Event.Drop
                 { dir = Event.Down; site; bytes = 0; loss = Faults.Crash_drop });
            out.(site) <- Faults.Lost Faults.Crash_drop
          end
          else out.(site) <- transmit_down_link t ~site ~payload
      done;
      out
    | Radio_broadcast ->
      (* One transmission on the shared medium, charged once; what can
         still fail is each site's reception, which costs nothing extra. *)
      let bytes = Wire.message ~payload in
      let recipients = t.k - (match except with Some _ -> 1 | None -> 0) in
      t.bytes_down <- t.bytes_down + bytes;
      t.messages_down <- t.messages_down + 1;
      t.medium <- t.medium + bytes;
      tap_medium t ~payload;
      check_ledger t;
      emit t
        (Event.Broadcast { except; payload; bytes; messages = 1; recipients });
      Array.init t.k (fun site ->
          if Some site = except then Faults.Delivered 0
          else begin
            match Faults.roll t.faults ~site ~time:t.time with
            | Faults.Delivered _ -> Faults.Delivered 1
            | Faults.Lost loss ->
              note_loss t loss;
              emit t
                (Event.Drop { dir = Event.Down; site; bytes = 0; loss });
              Faults.Lost loss
          end)
  end

type delivery = { received : bool; acked : bool; attempts : int }

let arrived = function
  | Faults.Delivered n -> n > 0
  | Faults.Lost _ -> false

let reliable_up ?(max_retries = 5) t ~site ~payload =
  if not (Faults.enabled t.faults) then begin
    send_up t ~site ~payload;
    { received = true; acked = true; attempts = 1 }
  end
  else begin
    let bytes = Wire.message ~payload in
    let received = ref false in
    let acked = ref false in
    let attempts = ref 0 in
    let budget = 1 + max 0 max_retries in
    while (not !acked) && !attempts < budget do
      if !attempts > 0 then begin
        t.retry_count <- t.retry_count + 1;
        emit t
          (Event.Retry { dir = Event.Up; site; attempt = !attempts; bytes })
      end;
      incr attempts;
      if arrived (transmit_up t ~site ~payload) then begin
        received := true;
        if arrived (transmit_down t ~site ~payload:Wire.ack_bytes) then
          acked := true
      end
    done;
    { received = !received; acked = !acked; attempts = !attempts }
  end

let reliable_down ?(max_retries = 5) t ~site ~payload =
  if not (Faults.enabled t.faults) then begin
    send_down t ~site ~payload;
    { received = true; acked = true; attempts = 1 }
  end
  else begin
    let bytes = Wire.message ~payload in
    let received = ref false in
    let acked = ref false in
    let attempts = ref 0 in
    let budget = 1 + max 0 max_retries in
    while (not !acked) && !attempts < budget do
      if !attempts > 0 then begin
        t.retry_count <- t.retry_count + 1;
        emit t
          (Event.Retry { dir = Event.Down; site; attempt = !attempts; bytes })
      end;
      incr attempts;
      if arrived (transmit_down t ~site ~payload) then begin
        received := true;
        if arrived (transmit_up t ~site ~payload:Wire.ack_bytes) then
          acked := true
      end
    done;
    { received = !received; acked = !acked; attempts = !attempts }
  end

(* One aggregator→parent backbone hop: aggregator [agg] merged what it
   received from its children and forwards [payload] bytes of new
   information toward the root.  Trackers call this once per hop after a
   delivered site contribution, pricing each hop by what is genuinely
   new to that aggregator — the tree's dedup savings.  Backbone links
   only fail by crash; a dead parent swallows the (still charged)
   frame. *)
let forward_up t ~agg ~payload =
  match t.topo with
  | None -> invalid_arg "Network.forward_up: no tree topology installed"
  | Some tp ->
    if agg < 0 || agg >= Topology.aggs tp then
      invalid_arg "Network.forward_up: aggregator out of range";
    let bytes = Wire.message ~payload in
    charge_backbone t ~dir:Event.Up ~j:agg ~payload ~bytes;
    let delivered =
      match Topology.agg_parent tp agg with
      | Topology.Root -> true
      | Topology.Agg p -> not (Faults.has_crashes t.faults && agg_node_down t p)
    in
    if delivered then note_up_delivered t ~node:(t.k + agg) ~bytes
    else begin
      note_loss t Faults.Crash_drop;
      emit t
        (Event.Drop
           {
             dir = Event.Up;
             site = t.k + agg;
             bytes = 0;
             loss = Faults.Crash_drop;
           })
    end;
    delivered

let bytes_up t = t.bytes_up
let bytes_down t = t.bytes_down
let total_bytes t = t.bytes_up + t.bytes_down
let messages_up t = t.messages_up
let messages_down t = t.messages_down
let total_messages t = t.messages_up + t.messages_down
let medium_bytes t = t.medium

let site_bytes_up t site =
  check_site t site;
  t.per_site_up.(site)

let site_bytes_down t site =
  check_site t site;
  t.per_site_down.(site)

let backbone_bytes_up t = t.backbone_up
let backbone_bytes_down t = t.backbone_down
let backbone_bytes t = t.backbone_up + t.backbone_down
let backbone_messages t = t.backbone_msgs
let grand_total_bytes t = total_bytes t + backbone_bytes t
let root_bytes_in t = t.root_in

let check_agg t agg =
  match t.topo with
  | None -> invalid_arg "Network: no tree topology installed"
  | Some tp ->
    if agg < 0 || agg >= Topology.aggs tp then
      invalid_arg "Network: aggregator index out of range"

let agg_bytes_up t agg =
  check_agg t agg;
  t.agg_up.(agg)

let agg_bytes_down t agg =
  check_agg t agg;
  t.agg_down.(agg)

let edge_delivered_up t ~node =
  if node < 0 || node >= Array.length t.up_delivered then
    invalid_arg "Network.edge_delivered_up: node out of range";
  t.up_delivered.(node)

let link_drops t = t.link_drops
let corrupt_drops t = t.corrupt_drops
let crash_drops t = t.crash_drops
let drops t = t.link_drops + t.corrupt_drops + t.crash_drops
let duplicate_deliveries t = t.dup_deliveries
let retries t = t.retry_count

let reset t =
  check_ledger t;
  t.bytes_up <- 0;
  t.bytes_down <- 0;
  t.messages_up <- 0;
  t.messages_down <- 0;
  Array.fill t.per_site_up 0 t.k 0;
  Array.fill t.per_site_down 0 t.k 0;
  t.medium <- 0;
  t.time <- 0;
  t.link_drops <- 0;
  t.corrupt_drops <- 0;
  t.crash_drops <- 0;
  t.dup_deliveries <- 0;
  t.retry_count <- 0;
  Array.fill t.agg_up 0 (Array.length t.agg_up) 0;
  Array.fill t.agg_down 0 (Array.length t.agg_down) 0;
  t.backbone_up <- 0;
  t.backbone_down <- 0;
  t.backbone_msgs <- 0;
  t.root_in <- 0;
  Array.fill t.up_delivered 0 (Array.length t.up_delivered) 0
