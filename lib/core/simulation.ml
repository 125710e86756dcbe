module Stream = Wd_workload.Stream
module Network = Wd_net.Network
module Transport = Wd_net.Transport
module Tracker_intf = Wd_protocol.Tracker_intf
module Wire = Wd_net.Wire
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Rng = Wd_hashing.Rng
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event
module Metrics = Wd_obs.Metrics
module Span = Wd_obs.Span

(* Attach a span recorder to the run's ledger: every message/broadcast
   tap and tracker batch becomes a wall-clock span in the trace (and a
   wire carrier starts shipping span contexts in its frames).  The
   trace id is derived from the seed so traces of different runs can be
   aggregated without id collisions; wall stamps come from the shared
   epoch clock so they are comparable across processes on one host. *)
let attach_spans ~spans ?metrics ~seed ~sink net =
  if spans then
    Network.set_spans net
      (Some
         (Span.create
            ~trace_id:(Int64.of_int seed)
            ?metrics ~clock:Wd_net.Clock.ns ~emit:(Sink.emit sink) ()))

(* Identify an instrumented run in its trace. *)
let emit_run_meta sink ~protocol ~algorithm ~sites ~cost_model ~seed =
  if Sink.enabled sink then
    Sink.emit sink
      {
        Event.time = 0;
        kind =
          Event.Run_meta
            {
              run_id = Printf.sprintf "%s-%s-seed%d" protocol algorithm seed;
              protocol;
              algorithm;
              sites;
              cost_model = Network.cost_model_to_string cost_model;
            };
      }

type dc_run = {
  dc_algorithm : Dc.algorithm;
  dc_updates : int;
  dc_total_bytes : int;
  dc_bytes_up : int;
  dc_bytes_down : int;
  dc_sends : int;
  dc_final_estimate : float;
  dc_final_truth : int;
  dc_bytes_series : (int * int) array;
  dc_error_series : (int * float) array;
  dc_drops : int;
  dc_duplicates : int;
  dc_retries : int;
  dc_lost_updates : int;
}

(* Evenly spaced 1-based sample positions over a run of [n] updates,
   always ending at [n]. *)
let sample_positions n samples =
  let samples = max 1 (min samples n) in
  Array.init samples (fun i -> max 1 ((i + 1) * n / samples))

(* Membership test on sorted positions via cursor: returns a function to
   call once per update index (1-based, increasing).  Calling it only at a
   superset of its own positions (as the chunked drivers do, with the
   union of all sample positions) is equally correct: the cursor advances
   exactly at its own positions and ignores the rest. *)
let cursor_matcher positions =
  let next = ref 0 in
  fun j ->
    if !next < Array.length positions && positions.(!next) = j then begin
      incr next;
      (* Skip duplicates (possible when samples > n). *)
      while !next < Array.length positions && positions.(!next) = j do
        incr next
      done;
      true
    end
    else false

(* Sorted deduplicated union of two increasing position arrays — the
   chunk boundaries of the batched drivers: a tracker can safely consume
   a whole slice between consecutive sample positions in one
   [observe_batch] call, because nothing is observed between them. *)
let merge_positions a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and m = ref 0 in
  let push x =
    if !m = 0 || out.(!m - 1) <> x then begin
      out.(!m) <- x;
      incr m
    end
  in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then begin
      push a.(!i);
      incr i
    end
    else begin
      push b.(!j);
      incr j
    end
  done;
  Array.sub out 0 !m

(* Drive any packed tracker over a stream.  With crash windows in the
   fault plan, truth depends on per-update loss accounting — arrivals
   discarded inside a window never reached the system — so the tracker
   is fed one update at a time and [on_arrival] fires only for arrivals
   that got through.  Without crashes no arrival can be lost, so the
   tracker consumes whole slices between [boundaries] in one
   [observe_batch] call — observationally identical, with the
   closure-per-update dispatch gone.  [sample_at] fires once per
   boundary either way (boundaries must be increasing and end at the
   stream length). *)
let feed tracker ~faults ~boundaries ~on_arrival ~sample_at stream =
  if Wd_net.Faults.has_crashes faults then
    Stream.iteri
      (fun j0 ~site ~item ->
        let lost0 = Tracker_intf.lost_updates tracker in
        Tracker_intf.observe tracker ~site item;
        if Tracker_intf.lost_updates tracker = lost0 then on_arrival item;
        sample_at (j0 + 1))
      stream
  else begin
    let sites = stream.Stream.sites and items = stream.Stream.items in
    let prev = ref 0 in
    Array.iter
      (fun b ->
        if b > !prev then begin
          Tracker_intf.observe_batch tracker ~sites ~items ~pos:!prev
            ~len:(b - !prev);
          for j = !prev to b - 1 do
            on_arrival (Array.unsafe_get items j)
          done;
          prev := b
        end;
        sample_at b)
      boundaries
  end

module Make_dc (Sketch : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) = struct
  module Tracker = Dc.Make (Sketch)

  let run ?(cost_model = Network.Unicast) ?transport ?(item_batching = true)
      ?(seed = 1) ?(checkpoints = 20) ?(error_samples = 200)
      ?(confidence = 0.9) ?family ?(sink = Sink.null) ?metrics
      ?(spans = false) ?(faults = Wd_net.Faults.none) ~algorithm ~theta ~alpha
      stream =
    let n = Stream.length stream in
    if n = 0 then invalid_arg "Simulation.Make_dc.run: empty stream";
    let k = Stream.num_sites stream in
    let rng = Rng.create seed in
    let family =
      match family with
      | Some f -> f
      | None -> Sketch.family ~rng ~accuracy:alpha ~confidence
    in
    (* EC ignores theta but the constructor validates it. *)
    let theta = if algorithm = Dc.EC then Float.max theta 0.1 else theta in
    let tracker =
      Tracker.create ~cost_model ?transport ~item_batching ~sink ~algorithm
        ~theta ~sites:k ~family ()
    in
    let transport = Tracker.transport tracker in
    let net = Tracker.network tracker in
    Network.set_sink net sink;
    attach_spans ~spans ?metrics ~seed ~sink net;
    Transport.set_faults transport faults;
    emit_run_meta sink ~protocol:"dc"
      ~algorithm:(Dc.algorithm_to_string algorithm)
      ~sites:k ~cost_model ~seed;
    (* Harness-side accuracy instruments: the protocols never see ground
       truth, so the error histogram lives here, not in the trackers. *)
    let err_hist =
      Option.map
        (fun m ->
          Metrics.histogram m
            ~help:"relative error of the coordinator estimate, sampled"
            ~min_exp:(-20) ~max_exp:4 "wd_estimate_rel_error")
        metrics
    in
    let truth_gauge =
      Option.map
        (fun m ->
          Metrics.gauge m ~help:"exact distinct count at last error sample"
            "wd_true_distinct")
        metrics
    in
    let truth = Hashtbl.create 4096 in
    let byte_positions = sample_positions n checkpoints in
    let err_positions = sample_positions n error_samples in
    let byte_at = cursor_matcher byte_positions in
    let err_at = cursor_matcher err_positions in
    let bytes_series = ref [] and error_series = ref [] in
    let sample_at j =
      if byte_at j then
        bytes_series := (j, Network.total_bytes net) :: !bytes_series;
      if err_at j then begin
        let n0 = Float.of_int (Hashtbl.length truth) in
        let err = Float.abs (Tracker.estimate tracker -. n0) /. n0 in
        Option.iter (fun h -> Metrics.observe h err) err_hist;
        Option.iter (fun g -> Metrics.set g n0) truth_gauge;
        error_series := (j, err) :: !error_series
      end
    in
    (* Truth is a set: arrivals that reached the system, deduplicated.
       [feed] routes the crash-gated one-at-a-time path and the batched
       path through the shared TRACKER surface. *)
    feed (Tracker.generic tracker) ~faults
      ~boundaries:(merge_positions byte_positions err_positions)
      ~on_arrival:(fun item ->
        if not (Hashtbl.mem truth item) then Hashtbl.replace truth item ())
      ~sample_at stream;
    Transport.close transport;
    {
      dc_algorithm = algorithm;
      dc_updates = n;
      dc_total_bytes = Network.total_bytes net;
      dc_bytes_up = Network.bytes_up net;
      dc_bytes_down = Network.bytes_down net;
      dc_sends = Tracker.sends tracker;
      dc_final_estimate = Tracker.estimate tracker;
      dc_final_truth = Hashtbl.length truth;
      dc_bytes_series = Array.of_list (List.rev !bytes_series);
      dc_error_series = Array.of_list (List.rev !error_series);
      dc_drops = Network.drops net;
      dc_duplicates = Network.duplicate_deliveries net;
      dc_retries = Network.retries net;
      dc_lost_updates = Tracker.lost_updates tracker;
    }
end

module Dc_fm = Make_dc (Wd_sketch.Fm)

type pair_stream = { psites : int array; vs : int array; ws : int array }

let pair_stream_length p = Array.length p.psites

let pair_stream_sites p =
  Array.fold_left (fun acc s -> max acc (s + 1)) 0 p.psites

let pair_stream_of_requests cfg site_view reqs =
  let module H = Wd_workload.Http_trace in
  let n = Array.length reqs in
  let psites = Array.make n 0 and vs = Array.make n 0 and ws = Array.make n 0 in
  let stream = H.view cfg H.Client_id site_view reqs in
  for j = 0 to n - 1 do
    psites.(j) <- Stream.site stream j;
    vs.(j) <- reqs.(j).H.obj;
    ws.(j) <- reqs.(j).H.client
  done;
  { psites; vs; ws }

let true_distinct_prefixes stream ~samples =
  let n = Stream.length stream in
  let at = cursor_matcher (sample_positions n samples) in
  let seen = Hashtbl.create 4096 in
  let out = ref [] in
  Stream.iteri
    (fun j0 ~site:_ ~item ->
      if not (Hashtbl.mem seen item) then Hashtbl.replace seen item ();
      if at (j0 + 1) then out := (j0 + 1, Hashtbl.length seen) :: !out)
    stream;
  Array.of_list (List.rev !out)

let exact_dc_bytes stream =
  let k = Stream.num_sites stream in
  let seen = Array.init (max 1 k) (fun _ -> Hashtbl.create 1024) in
  let bytes = ref 0 in
  Stream.iter
    (fun ~site ~item ->
      if not (Hashtbl.mem seen.(site) item) then begin
        Hashtbl.replace seen.(site) item ();
        bytes := !bytes + Wire.message ~payload:Wire.item_bytes
      end)
    stream;
  !bytes

let exact_ds_bytes stream =
  Stream.length stream * Wire.message ~payload:Wire.item_bytes

(* ------------------------------------------------------------------ *)
(* The unified run API: one driver over declarative standing queries. *)

module Query = Wd_view.Query
module Registry = Wd_view.Registry
module Window_truth = Wd_workload.Window_truth
module Yzh = Wd_protocol.Yz_hh_tracker
module Yzq = Wd_aggregate.Yz_quantile_tracker

type view_report = {
  view_label : string;
  view_spec : string;
  view_estimate : float;
  view_routed : int;
  view_sends : int;
  view_bytes_up : int;
  view_bytes_down : int;
  view_total_bytes : int;
}

type aux =
  | Dc_aux
  | Ds_aux of {
      level : int;
      sample : (int * int) list;
      max_count_error : float;
    }
  | Hh_aux of {
      avg_norm_error : float;
      topk_recall : float;
      exact_bytes : int;
    }
  | Window_aux of { window : int; exact_bytes : int }
  | Yz_hh_aux of {
      total_rel_error : float;
      max_rel_error : float;
      topk_recall : float;
    }
  | Yz_q_aux of { rank_error : float; universe : int }

type run = {
  query : Query.t;
  updates : int;
  total_bytes : int;
  bytes_up : int;
  bytes_down : int;
  backbone_bytes : int;
  sends : int;
  final_estimate : float;
  final_truth : int;
  bytes_series : (int * int) array;
  error_series : (int * float) array;
  drops : int;
  duplicates : int;
  retries : int;
  lost_updates : int;
  aux : aux;
  view_reports : view_report array;
}

let stream_of_pairs p =
  let n = pair_stream_length p in
  let items =
    Array.init n (fun j -> Query.pack_pair ~v:p.vs.(j) ~w:p.ws.(j))
  in
  Stream.make ~sites:(Array.copy p.psites) ~items

(* EC baseline over a packed pair stream: one message per locally-new
   pair, both halves on the wire (as [exact_pair_bytes]). *)
let exact_packed_pair_bytes stream =
  let k = Stream.num_sites stream in
  let seen = Array.init (max 1 k) (fun _ -> Hashtbl.create 1024) in
  let bytes = ref 0 in
  Stream.iter
    (fun ~site ~item ->
      if not (Hashtbl.mem seen.(site) item) then begin
        Hashtbl.replace seen.(site) item ();
        bytes := !bytes + Wire.message ~payload:(2 * Wire.item_bytes)
      end)
    stream;
  !bytes

let run ?(cost_model = Network.Unicast) ?transport ?topology
    ?(item_batching = true) ?(seed = 1) ?(checkpoints = 20)
    ?(error_samples = 200) ?(sink = Sink.null) ?metrics ?(spans = false)
    ?(faults = Wd_net.Faults.none) ?(top_k = 20) ?(views = [])
    (query : Query.t) stream =
  let n = Stream.length stream in
  if n = 0 then invalid_arg "Simulation.run: empty stream";
  let k = Stream.num_sites stream in
  let is_window, is_hh, is_ds, sample_error =
    match query.Query.protocol with
    | Query.Dc _ -> (false, false, false, true)
    | Query.Ds _ -> (false, false, true, false)
    | Query.Hh _ -> (false, true, false, false)
    | Query.Window _ -> (true, false, false, true)
    | Query.Yz_hh | Query.Yz_q -> (false, false, false, true)
  in
  let is_yzhh = query.Query.protocol = Query.Yz_hh in
  let is_yzq = query.Query.protocol = Query.Yz_q in
  if is_window && Wd_net.Faults.enabled faults then
    invalid_arg
      "Simulation.run: fault injection is not supported for window queries";
  let default_window = max 1 (n / 4) in
  let resolved_window =
    if query.Query.window > 0 then query.Query.window else default_window
  in
  let reg =
    Registry.create ~cost_model ?transport ~item_batching ~sink
      ~default_window ~seed ~sites:k (query :: views)
  in
  let tracker = Registry.packed reg in
  let net = Tracker_intf.network tracker in
  Network.set_sink net sink;
  (* Install the tree before any traffic: the primary's trackers read it
     through the shared ledger on every delivered contribution, so the
     simulator and the wire carrier route identically. *)
  Option.iter (fun topo -> Network.set_topology net topo) topology;
  attach_spans ~spans ?metrics ~seed ~sink net;
  if not is_window then
    Transport.set_faults (Tracker_intf.transport tracker) faults;
  emit_run_meta sink
    ~protocol:(Query.protocol_family query.Query.protocol)
    ~algorithm:(Query.protocol_algorithm query.Query.protocol)
    ~sites:k ~cost_model ~seed;
  (* Harness-side accuracy instruments, for the protocols whose scalar
     estimate is continuously comparable to exact ground truth. *)
  let err_hist =
    if sample_error then
      Option.map
        (fun m ->
          Metrics.histogram m
            ~help:"relative error of the coordinator estimate, sampled"
            ~min_exp:(-20) ~max_exp:4 "wd_estimate_rel_error")
        metrics
    else None
  in
  let truth_gauge =
    if sample_error then
      Option.map
        (fun m ->
          Metrics.gauge m ~help:"exact distinct count at last error sample"
            "wd_true_distinct")
        metrics
    else None
  in
  (* Ground truth over arrivals that reached the system: multiplicities
     (DS needs counts; the table's size is the distinct truth), a
     windowed structure for window queries, and the surviving arrival
     order for HH degree evaluation. *)
  let truth = Hashtbl.create 4096 in
  let wtruth = if is_window then Some (Window_truth.create ()) else None in
  let hh_log = ref [] in
  let arrivals = ref 0 in
  (* YZ-quantile truth is over the tracker's folded item domain. *)
  let yzq = if is_yzq then Registry.yzq_tracker reg 0 else None in
  let qtruth = Hashtbl.create (if is_yzq then 4096 else 1) in
  let on_arrival item =
    incr arrivals;
    Hashtbl.replace truth item
      (1 + Option.value ~default:0 (Hashtbl.find_opt truth item));
    (match wtruth with Some w -> Window_truth.add w item | None -> ());
    (match yzq with
    | Some qt -> Hashtbl.replace qtruth (Yzq.clamp qt item) ()
    | None -> ());
    if is_hh then hh_log := item :: !hh_log
  in
  let truth_now () =
    match wtruth with
    | Some w -> Window_truth.distinct_last w resolved_window
    | None ->
      if is_yzhh then !arrivals
      else if is_yzq then Hashtbl.length qtruth
      else Hashtbl.length truth
  in
  let byte_positions = sample_positions n checkpoints in
  let err_positions =
    if sample_error then sample_positions n error_samples else [||]
  in
  let byte_at = cursor_matcher byte_positions in
  let err_at = cursor_matcher err_positions in
  let bytes_series = ref [] and error_series = ref [] in
  let sample_at j =
    if byte_at j then
      bytes_series := (j, Network.total_bytes net) :: !bytes_series;
    if sample_error && err_at j then begin
      let n0 = Float.of_int (truth_now ()) in
      let err = Float.abs (Tracker_intf.estimate tracker -. n0) /. n0 in
      Option.iter (fun h -> Metrics.observe h err) err_hist;
      Option.iter (fun g -> Metrics.set g n0) truth_gauge;
      error_series := (j, err) :: !error_series
    end
  in
  feed tracker ~faults
    ~boundaries:(merge_positions byte_positions err_positions)
    ~on_arrival ~sample_at stream;
  (* Close the transports before the final answers are read. *)
  Registry.close reg;
  let aux =
    if is_ds then begin
      let ds = Option.get (Registry.ds_tracker reg 0) in
      let sample = Ds.sample ds in
      let max_count_error =
        List.fold_left
          (fun acc (v, c) ->
            match Hashtbl.find_opt truth v with
            | None -> acc (* cannot happen: sampled items are in the stream *)
            | Some c_true ->
              Float.max acc
                (Float.abs (Float.of_int (c - c_true))
                /. Float.of_int c_true))
          0.0 sample
      in
      Ds_aux { level = Ds.level ds; sample; max_count_error }
    end
    else if is_hh then begin
      let h = Option.get (Registry.hh_tracker reg 0) in
      let arrivals = Array.of_list (List.rev !hh_log) in
      let pair_seq =
        Seq.init (Array.length arrivals) (fun j ->
            (Query.unpack_v arrivals.(j), Query.unpack_w arrivals.(j)))
      in
      let degrees = Wd_aggregate.Distinct_hh.exact_degrees pair_seq in
      let distinct_pairs = Hashtbl.fold (fun _ d acc -> acc + d) degrees 0 in
      let exact_top =
        Hashtbl.fold (fun v d acc -> (v, d) :: acc) degrees []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i _ -> i < top_k)
      in
      let avg_norm_error =
        match exact_top with
        | [] -> 0.0
        | _ ->
          let total =
            List.fold_left
              (fun acc (v, d) ->
                let est = Wd_aggregate.Distinct_hh.Tracked.estimate h v in
                acc
                +. Float.abs (est -. Float.of_int d)
                   /. Float.of_int (max 1 distinct_pairs))
              0.0 exact_top
          in
          total /. Float.of_int (List.length exact_top)
      in
      let estimated_top =
        Wd_aggregate.Distinct_hh.Tracked.top h ~k:top_k |> List.map fst
      in
      let recall =
        match exact_top with
        | [] -> 1.0
        | _ ->
          let hits =
            List.length
              (List.filter (fun (v, _) -> List.mem v estimated_top) exact_top)
          in
          Float.of_int hits /. Float.of_int (List.length exact_top)
      in
      Hh_aux
        {
          avg_norm_error;
          topk_recall = recall;
          exact_bytes = exact_packed_pair_bytes stream;
        }
    end
    else if is_window then
      Window_aux
        {
          window = resolved_window;
          exact_bytes = Wd_protocol.Window_tracker.exact_bytes ~updates:n;
        }
    else if is_yzhh then begin
      let h = Option.get (Registry.yzhh_tracker reg 0) in
      let n_total = max 1 !arrivals in
      let exact_top =
        Hashtbl.fold (fun v c acc -> (v, c) :: acc) truth []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i _ -> i < top_k)
      in
      (* Yi–Zhang errors are additive in eps * N: report them
         normalized by the true total so the [alpha] budget is directly
         checkable. *)
      let max_rel_error =
        List.fold_left
          (fun acc (v, c) ->
            let est = Option.value (Yzh.query h v) ~default:0 in
            Float.max acc
              (Float.abs (Float.of_int (est - c)) /. Float.of_int n_total))
          0.0 exact_top
      in
      let estimated_top = Yzh.top h ~k:top_k |> List.map fst in
      let topk_recall =
        match exact_top with
        | [] -> 1.0
        | _ ->
          let hits =
            List.length
              (List.filter (fun (v, _) -> List.mem v estimated_top) exact_top)
          in
          Float.of_int hits /. Float.of_int (List.length exact_top)
      in
      Yz_hh_aux
        {
          total_rel_error =
            Float.abs (Float.of_int (Yzh.total_estimate h - !arrivals))
            /. Float.of_int n_total;
          max_rel_error;
          topk_recall;
        }
    end
    else if is_yzq then begin
      let qt = Option.get (Registry.yzq_tracker reg 0) in
      let m = Yzq.quantile qt 0.5 in
      let d = Hashtbl.length qtruth in
      let below =
        Hashtbl.fold (fun v () acc -> if v <= m then acc + 1 else acc) qtruth 0
      in
      let rank_error =
        if d = 0 then 0.0
        else Float.abs ((Float.of_int below /. Float.of_int d) -. 0.5)
      in
      Yz_q_aux { rank_error; universe = Yzq.universe qt }
    end
    else Dc_aux
  in
  let view_reports =
    Array.init (Registry.views reg) (fun i ->
        let vt = Registry.view_tracker reg i in
        let vnet = Tracker_intf.network vt in
        {
          view_label = Registry.label reg i;
          view_spec = Query.to_spec (Registry.query reg i);
          view_estimate = Registry.estimate reg i;
          view_routed = Registry.routed reg i;
          view_sends = Tracker_intf.sends vt;
          view_bytes_up = Network.bytes_up vnet;
          view_bytes_down = Network.bytes_down vnet;
          view_total_bytes = Network.total_bytes vnet;
        })
  in
  (* Trace the per-view answers, but only for genuinely multi-view runs:
     single-view traces must stay bit-identical to the legacy drivers. *)
  if Registry.views reg > 1 then
    Array.iteri
      (fun i (vr : view_report) ->
        Sink.emit sink
          {
            Event.time = n;
            kind =
              Event.View_report
                {
                  index = i;
                  label = vr.view_label;
                  spec = vr.view_spec;
                  estimate = vr.view_estimate;
                  routed = vr.view_routed;
                  bytes = vr.view_total_bytes;
                };
          })
      view_reports;
  {
    query;
    updates = n;
    total_bytes = Network.total_bytes net;
    bytes_up = Network.bytes_up net;
    bytes_down = Network.bytes_down net;
    backbone_bytes = Network.backbone_bytes net;
    sends = Tracker_intf.sends tracker;
    final_estimate = Tracker_intf.estimate tracker;
    final_truth = truth_now ();
    bytes_series = Array.of_list (List.rev !bytes_series);
    error_series = Array.of_list (List.rev !error_series);
    drops = Network.drops net;
    duplicates = Network.duplicate_deliveries net;
    retries = Network.retries net;
    lost_updates = Tracker_intf.lost_updates tracker;
    aux;
    view_reports;
  }
