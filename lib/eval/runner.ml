(* Execute experiment-matrix cells: R seeded repetitions per cell
   through the Simulation drivers (or a direct Window_tracker drive),
   aggregated into Artifact.cell_result records with the binomial
   acceptance verdict attached. *)

module Sim = Whats_different.Simulation
module Stream = Wd_workload.Stream
module Gen = Wd_workload.Stream_gen
module Http = Wd_workload.Http_trace
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module W = Wd_protocol.Window_tracker
module Tcp = Wd_net.Transport_tcp
module Metrics = Wd_obs.Metrics
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event
module Query = Wd_view.Query

let sketch_estimator (cell : Spec.cell) =
  match cell.estimator with
  | Spec.Classic -> Wd_sketch.Sketch_intf.Classic
  | Spec.Mle -> Wd_sketch.Sketch_intf.Mle

type config = {
  reps : int;
  base_seed : int;
  significance : float;
  handicap : float;
  ds_threshold : int;
  socket_dir : string;
  progress : (string -> unit) option;
  metrics : Metrics.t option;
}

let default_config =
  {
    reps = 5;
    base_seed = 42;
    significance = 0.005;
    handicap = 1.0;
    ds_threshold = 400;
    socket_dir = Filename.get_temp_dir_name ();
    progress = None;
    metrics = None;
  }

(* One repetition's measurements, before aggregation. *)
type rep = { err : float; success : bool; bytes : int; msgs : int }

(* Hierarchical HTTP cells run the per-server view (29 sites under the
   tree's regional aggregators — the paper's CDN deployment); flat HTTP
   cells keep the 4-region site view. *)
let http_site_view (cell : Spec.cell) =
  if cell.topology = None then Http.Per_region else Http.Per_server

let build_stream (cell : Spec.cell) ~seed =
  let sites = cell.sites and events = cell.events in
  match cell.workload with
  | Spec.Zipf ->
    let universe =
      max 16 (Float.to_int (Float.of_int events /. Float.max 1.0 cell.dup))
    in
    Gen.zipf ~seed ~sites ~events ~universe ()
  | Spec.Two_phase ->
    (* k*n + k*k*n events total: solve per-site n for the event target. *)
    let per_site = max 20 (events / (sites * (sites + 1))) in
    Wd_workload.Two_phase.generate ~seed ~sites ~per_site ()
  | Spec.Http_trace ->
    let cfg =
      Http.scaled ~seed (Float.of_int events /. Float.of_int Http.default.requests)
    in
    Http.view cfg Http.Object_id (http_site_view cell) (Http.generate cfg)

let parse_topology (cell : Spec.cell) ~sites =
  match cell.topology with
  | None -> None
  | Some spec -> (
    match Wd_net.Topology.of_spec ~sites spec with
    | Ok t -> Some t
    | Error e ->
      failwith
        (Printf.sprintf "cell %s: bad topology spec: %s" (Spec.id cell) e))

let parse_faults (cell : Spec.cell) ~seed =
  match cell.faults with
  | None -> Wd_net.Faults.none
  | Some spec -> (
    match Wd_net.Faults.of_spec ~seed spec with
    | Ok plan -> plan
    | Error e ->
      failwith (Printf.sprintf "cell %s: bad fault spec: %s" (Spec.id cell) e))

(* Wire size of a fully loaded sketch of the cell's (honest, i.e.
   handicap-free) family — the message-size input of the Theory
   envelopes. *)
let sketch_wire_bytes (cell : Spec.cell) ~seed (stream : Stream.t) =
  let alpha = Spec.sketch_alpha cell and delta = cell.delta in
  let measure (module S : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) =
    let t = S.of_params ~alpha ~delta ~seed in
    S.add_batch t stream.Stream.items;
    S.size_bytes t
  in
  match cell.sketch with
  | Spec.Fm -> measure (module Wd_sketch.Fm)
  | Spec.Bjkst -> measure (module Wd_sketch.Bjkst)
  | Spec.Hll -> measure (module Wd_sketch.Hyperloglog)
  | Spec.Fmc -> measure (module Wd_sketch.Fm_concentrated)

(* Run [f transport] over the stream carrier, wdmon coord --spawn
   style: relay processes of [per_relay] contiguous sites each, forked
   once the listener is up, at the Unix-domain [path] or (without one)
   an ephemeral loopback TCP port.  Children serve frames until the run
   closes the transport, then exit without flushing the parent's
   inherited stdout buffer.  Any child still alive after [f] (or an
   exception) is killed before reaping. *)
let with_relays ?path ~per_relay ~sites f =
  let children = ref [] in
  let reap () =
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !children
  in
  let ranges =
    let rec go first acc =
      if first >= sites then List.rev acc
      else
        let count = min per_relay (sites - first) in
        go (first + count) ((first, count) :: acc)
    in
    go 0 []
  in
  let port = if path = None then Some 0 else None in
  Fun.protect ~finally:reap (fun () ->
    let coord =
      Tcp.Coordinator.connect ~timeout:30.0 ?port ?path ~sites
        ~on_listening:(fun bound ->
          let port = Option.map (fun _ -> bound) port in
          children :=
            List.map
              (fun (first_site, count) ->
                match Unix.fork () with
                | 0 ->
                  (try
                     ignore
                       (Tcp.Relay.run ?port ?path ~first_site ~count ()
                         : Wd_net.Frame_io.site_report)
                   with _ -> ());
                  Unix._exit 0
                | pid -> pid)
              ranges)
        ()
    in
    f (Tcp.Coordinator.pack coord))

(* ------------------------------------------------------------------ *)
(* Per-protocol repetitions.  Each returns the rep measurements plus
   the Theory envelope (computed once per repetition: workloads are
   regenerated per seed, so the envelope inputs move with them). *)

(* Key-class fanout satellites for a multi-view cell: [views - 1]
   standing queries, each scoped to one residue class of the item key,
   all sharing the primary's hash-once plane via the Fanout sketch. *)
let dc_satellites (cell : Spec.cell) ~theta ~alpha algorithm =
  let sats = cell.views - 1 in
  List.init sats (fun i ->
      Query.dc
        ~name:(Printf.sprintf "v%d" (i + 1))
        ~sketch:Query.Fanout
        ~selector:(Query.Key_mod { modulus = sats; residue = i })
        ~theta ~alpha algorithm)

let query_sketch = function
  | Spec.Fm -> Query.Fm
  | Spec.Bjkst -> Query.Bjkst
  | Spec.Hll -> Query.Hll
  | Spec.Fmc -> Query.Fmc

let dc_rep cfg (cell : Spec.cell) ~seed ?transport ?sink ?spans stream =
  let theta = Spec.theta cell in
  (* The injected-bug dial: scaling sketch accuracy by sqrt(h) is
     exactly an h-fold cut in FM repetitions (m ~ 1/accuracy^2). *)
  let acc = Spec.sketch_alpha cell *. Float.sqrt cfg.handicap in
  let faults = parse_faults cell ~seed:(seed + 500) in
  let algorithm =
    match cell.protocol with Spec.Dc a -> a | _ -> assert false
  in
  let topology = parse_topology cell ~sites:(Stream.num_sites stream) in
  let swb = sketch_wire_bytes cell ~seed stream in
  let opt_lb =
    Theory.opt_lower_bound cell ~sites:(Stream.num_sites stream)
      ~updates:(Stream.length stream) ~distinct:(Stream.distinct_count stream)
      ~threshold:cfg.ds_threshold ~sketch_bytes:swb
  in
  (* The primary runs at [seed] (the family [family_of_params ~seed]
     builds); multi-view cells add key-class satellites beside it.  Tree
     cells' bytes are the backbone-inclusive grand total. *)
  let run =
    Sim.run ?transport ?topology ?sink ?spans ~seed ~faults
      ~views:(dc_satellites cell ~theta ~alpha:acc algorithm)
      (Query.dc
         ~sketch:(query_sketch cell.sketch)
         ~estimator:(sketch_estimator cell)
         ~confidence:(1.0 -. cell.delta)
         ~theta ~alpha:acc algorithm)
      stream
  in
  let truth = max 1 run.Sim.final_truth in
  let err =
    Float.abs (run.Sim.final_estimate -. Float.of_int truth)
    /. Float.of_int truth
  in
  (* Continuous-tracking check: over the settled second half of the run,
     the coordinator's estimate must sit inside the alpha band nearly
     always (the pointwise guarantee holds with probability 1 - delta,
     so demand 1 - 2*delta of the samples). *)
  let series = run.Sim.error_series in
  let n = Array.length series in
  let tail = Array.sub series (n / 2) (n - (n / 2)) in
  let in_band =
    Array.fold_left
      (fun a (_, e) -> if e <= cell.alpha then a + 1 else a)
      0 tail
  in
  let coverage =
    Float.of_int in_band /. Float.of_int (max 1 (Array.length tail))
  in
  let success =
    err <= cell.alpha && coverage >= 1.0 -. (2.0 *. cell.delta)
  in
  let bound =
    Theory.dc_bound ~algorithm ~sites:(Stream.num_sites stream)
      ~distinct:(Stream.distinct_count stream) ~theta ~sketch_bytes:swb
      ~exact_bytes:(Sim.exact_dc_bytes stream)
  in
  ( {
      err;
      success;
      bytes = run.Sim.total_bytes + run.Sim.backbone_bytes;
      msgs = run.Sim.sends;
    },
    bound,
    opt_lb )

let ds_rep cfg (cell : Spec.cell) ~seed ?transport ?sink ?spans stream =
  (* The whole budget is the count-lag theta here (Lemma 2 bounds the
     tracked-count error by theta deterministically); the handicap
     inflates the lag the tracker runs with while acceptance still
     judges against the honest alpha. *)
  let theta = cell.alpha *. cfg.handicap *. cfg.handicap in
  let faults = parse_faults cell ~seed:(seed + 500) in
  let algorithm =
    match cell.protocol with Spec.Ds a -> a | _ -> assert false
  in
  let topology = parse_topology cell ~sites:(Stream.num_sites stream) in
  let run =
    Sim.run ?transport ?topology ?sink ?spans ~seed ~faults
      (Query.ds ~theta ~threshold:cfg.ds_threshold algorithm)
      stream
  in
  let err =
    match run.Sim.aux with
    | Sim.Ds_aux { max_count_error; _ } -> max_count_error
    | _ -> assert false
  in
  let mults = Stream.multiplicities stream in
  let max_mult = Hashtbl.fold (fun _ m acc -> max m acc) mults 1 in
  let bound =
    Theory.ds_bound ~algorithm ~sites:(Stream.num_sites stream)
      ~threshold:cfg.ds_threshold ~theta:cell.alpha ~max_mult
      ~updates:(Stream.length stream) ~exact_bytes:(Sim.exact_ds_bytes stream)
  in
  let opt_lb =
    Theory.opt_lower_bound cell ~sites:(Stream.num_sites stream)
      ~updates:(Stream.length stream) ~distinct:(Stream.distinct_count stream)
      ~threshold:cfg.ds_threshold ~sketch_bytes:0
  in
  ( {
      err;
      success = err <= cell.alpha;
      bytes = run.Sim.total_bytes + run.Sim.backbone_bytes;
      msgs = run.Sim.sends;
    },
    bound,
    opt_lb )

let hh_rep cfg (cell : Spec.cell) ~seed =
  ignore cfg.handicap;
  let algorithm =
    match cell.protocol with Spec.Hh a -> a | _ -> assert false
  in
  let http =
    Http.scaled ~seed
      (Float.of_int cell.events /. Float.of_int Http.default.requests)
  in
  let pairs =
    Sim.pair_stream_of_requests http (http_site_view cell)
      (Http.generate http)
  in
  let stream = Sim.stream_of_pairs pairs in
  let topology = parse_topology cell ~sites:(Stream.num_sites stream) in
  let run =
    Sim.run ?topology ~seed ~top_k:10
      (Query.hh
         ~config:{ Wd_aggregate.Fm_array.rows = 3; cols = 500; bitmaps = 10 }
         ~theta:(Spec.theta cell) algorithm)
      stream
  in
  let avg_norm_error, topk_recall, exact_bytes =
    match run.Sim.aux with
    | Sim.Hh_aux { avg_norm_error; topk_recall; exact_bytes } ->
      (avg_norm_error, topk_recall, exact_bytes)
    | _ -> assert false
  in
  let opt_lb =
    Theory.opt_lower_bound cell ~sites:(Stream.num_sites stream)
      ~updates:(Stream.length stream) ~distinct:(Stream.distinct_count stream)
      ~threshold:cfg.ds_threshold ~sketch_bytes:0
  in
  ( {
      err = avg_norm_error;
      success = avg_norm_error <= cell.alpha && topk_recall >= 0.5;
      bytes = run.Sim.total_bytes + run.Sim.backbone_bytes;
      msgs = run.Sim.sends;
    },
    Theory.hh_bound ~exact_bytes,
    opt_lb )

let window_rep cfg (cell : Spec.cell) ~seed stream =
  let algorithm =
    match cell.protocol with Spec.Window a -> a | _ -> assert false
  in
  let theta = Spec.theta cell in
  let acc = Spec.sketch_alpha cell *. Float.sqrt cfg.handicap in
  let family =
    Wd_sketch.Fm_window.family_of_params ~alpha:acc ~delta:cell.delta ~seed
  in
  let n = Stream.length stream in
  let window = max 1 (n / 4) in
  let t =
    W.create ~algorithm ~theta ~window ~sites:(Stream.num_sites stream)
      ~family ()
  in
  let truth = Wd_workload.Window_truth.create () in
  (* Sample the windowed error at ~64 positions in the settled second
     half (once the window is full). *)
  let samples = ref [] in
  let stride = max 1 (n / 128) in
  Stream.iteri
    (fun i ~site ~item ->
      W.observe t ~site ~time:i item;
      Wd_workload.Window_truth.add truth item;
      if i >= n / 2 && i mod stride = 0 then begin
        let exact = Wd_workload.Window_truth.distinct_last truth window in
        let est = W.estimate t ~now:i in
        samples :=
          (Float.abs (est -. Float.of_int (max 1 exact))
          /. Float.of_int (max 1 exact))
          :: !samples
      end)
    stream;
  let errs = Array.of_list !samples in
  let err = Stats.quantile errs 0.5 in
  let net = W.network t in
  let opt_lb =
    Theory.opt_lower_bound cell ~sites:(Stream.num_sites stream) ~updates:n
      ~distinct:(Stream.distinct_count stream) ~threshold:cfg.ds_threshold
      ~sketch_bytes:0
  in
  ( {
      err;
      success = err <= cell.alpha;
      bytes = Wd_net.Network.total_bytes net;
      msgs = W.sends t;
    },
    Theory.window_bound ~updates:n,
    opt_lb )

(* The Yi–Zhang rows: the optimal-tracking contenders beside the
   paper's protocols.  Their [alpha] is the tracking epsilon; accuracy
   acceptance checks the guarantee the algorithms actually make
   (counts within eps*N / median rank within eps of 1/2). *)
let yzhh_rep (cell : Spec.cell) ~seed ?sink ?spans stream =
  let faults = parse_faults cell ~seed:(seed + 500) in
  let topology = parse_topology cell ~sites:(Stream.num_sites stream) in
  let run =
    Sim.run ?topology ?sink ?spans ~seed ~faults
      (Query.yzhh ~epsilon:cell.alpha ())
      stream
  in
  let total_rel_error, max_rel_error, topk_recall =
    match run.Sim.aux with
    | Sim.Yz_hh_aux { total_rel_error; max_rel_error; topk_recall } ->
      (total_rel_error, max_rel_error, topk_recall)
    | _ -> assert false
  in
  let err = Float.max total_rel_error max_rel_error in
  let bound =
    Theory.yz_hh_bound ~sites:(Stream.num_sites stream) ~epsilon:cell.alpha
      ~updates:(Stream.length stream)
  in
  let opt_lb =
    Theory.opt_lower_bound cell ~sites:(Stream.num_sites stream)
      ~updates:(Stream.length stream) ~distinct:(Stream.distinct_count stream)
      ~threshold:0 ~sketch_bytes:0
  in
  ( {
      err;
      success = err <= cell.alpha && topk_recall >= 0.5;
      bytes = run.Sim.total_bytes + run.Sim.backbone_bytes;
      msgs = run.Sim.sends;
    },
    bound,
    opt_lb )

let yzq_rep (cell : Spec.cell) ~seed ?sink ?spans stream =
  let faults = parse_faults cell ~seed:(seed + 500) in
  let topology = parse_topology cell ~sites:(Stream.num_sites stream) in
  (* Match the tracked domain to the workload's value range: fewer
     dyadic levels means less stacked FM noise in every rank query. *)
  let universe = max 1024 cell.events in
  let run =
    Sim.run ?topology ?sink ?spans ~seed ~faults
      (Query.yzq ~epsilon:cell.alpha ~universe ())
      stream
  in
  let rank_error =
    match run.Sim.aux with
    | Sim.Yz_q_aux { rank_error; _ } -> rank_error
    | _ -> assert false
  in
  let bound =
    Theory.yz_q_bound ~sites:(Stream.num_sites stream) ~epsilon:cell.alpha
      ~updates:(Stream.length stream)
      ~distinct:(Stream.distinct_count stream)
  in
  let opt_lb =
    Theory.opt_lower_bound cell ~sites:(Stream.num_sites stream)
      ~updates:(Stream.length stream) ~distinct:(Stream.distinct_count stream)
      ~threshold:0 ~sketch_bytes:0
  in
  ( {
      err = rank_error;
      success = rank_error <= cell.alpha;
      bytes = run.Sim.total_bytes + run.Sim.backbone_bytes;
      msgs = run.Sim.sends;
    },
    bound,
    opt_lb )

(* One repetition of a wire cell: socket cells keep one relay process
   per site on a Unix path, tcp cells multiplex two sites per relay over
   loopback. *)
let on_wire cfg (cell : Spec.cell) ~seed rep =
  let stream = build_stream cell ~seed in
  let path, per_relay =
    match cell.transport with
    | Spec.Socket ->
      ( Some
          (Printf.sprintf "%s/wde-%d-%d.sock" cfg.socket_dir (Unix.getpid ())
             seed),
        1 )
    | Spec.Sim | Spec.Tcp -> (None, 2)
  in
  with_relays ?path ~per_relay ~sites:(Stream.num_sites stream) (rep stream)

let run_rep cfg (cell : Spec.cell) ~seed ?sink ?spans () =
  match (cell.protocol, cell.transport) with
  | Spec.Hh _, Spec.Sim -> hh_rep cfg cell ~seed
  | Spec.Window _, Spec.Sim ->
    window_rep cfg cell ~seed (build_stream cell ~seed)
  | Spec.Dc _, Spec.Sim ->
    dc_rep cfg cell ~seed ?sink ?spans (build_stream cell ~seed)
  | Spec.Ds _, Spec.Sim ->
    ds_rep cfg cell ~seed ?sink ?spans (build_stream cell ~seed)
  | Spec.Dc _, (Spec.Socket | Spec.Tcp) ->
    on_wire cfg cell ~seed (fun stream transport ->
        dc_rep cfg cell ~seed ~transport ?sink ?spans stream)
  | Spec.Ds _, (Spec.Socket | Spec.Tcp) ->
    on_wire cfg cell ~seed (fun stream transport ->
        ds_rep cfg cell ~seed ~transport ?sink ?spans stream)
  | Spec.Yz_hh, Spec.Sim ->
    yzhh_rep cell ~seed ?sink ?spans (build_stream cell ~seed)
  | Spec.Yz_q, Spec.Sim ->
    yzq_rep cell ~seed ?sink ?spans (build_stream cell ~seed)
  | ( (Spec.Hh _ | Spec.Window _ | Spec.Yz_hh | Spec.Yz_q),
      (Spec.Socket | Spec.Tcp) ) ->
    failwith
      (Printf.sprintf "cell %s: no wire backend for this protocol family"
         (Spec.id cell))

(* Nearest-rank digest of an informational measurement series. *)
let quantiles_of samples =
  if Array.length samples = 0 then None
  else
    Some
      {
        Artifact.q_p50 = Stats.quantile samples 0.5;
        q_p90 = Stats.quantile samples 0.9;
        q_max = Stats.max_value samples;
      }

let run_cell cfg (cell : Spec.cell) =
  let id = Spec.id cell in
  Option.iter (fun p -> p (Printf.sprintf "running %s" id)) cfg.progress;
  (* Timing instrumentation (informational artifact fields): each rep is
     individually wall-timed, and dc/ds reps run with a span recorder
     emitting into a bounded in-memory ring, from which observe_batch
     durations are digested.  Spans never influence the measured
     estimates or ledger bytes, only the timing digests. *)
  let ring = Sink.ring ~capacity:65536 in
  let t0 = Unix.gettimeofday () in
  let timed =
    List.init cfg.reps (fun r ->
      let r0 = Unix.gettimeofday () in
      let m = run_rep cfg cell ~seed:(cfg.base_seed + r) ~sink:ring ~spans:true () in
      (m, Unix.gettimeofday () -. r0))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let measured = List.map fst timed in
  let rep_wall_s =
    quantiles_of (Array.of_list (List.map snd timed))
  in
  let batch_span_ns =
    quantiles_of
      (Array.of_list
         (List.filter_map
            (fun (ev : Event.t) ->
              match ev.Event.kind with
              | Event.Span { name = "observe_batch"; start_ns; end_ns; _ } ->
                Some (Int64.to_float (Int64.sub end_ns start_ns))
              | _ -> None)
            (Sink.ring_contents ring)))
  in
  let reps = List.map (fun (m, _, _) -> m) measured in
  let arr f = Array.of_list (List.map f reps) in
  let errs = arr (fun m -> m.err) in
  let ratios =
    Array.of_list
      (List.map
         (fun (m, bound, _) -> Float.of_int m.bytes /. Float.max 1.0 bound)
         measured)
  in
  let opt_ratios =
    Array.of_list
      (List.map
         (fun (m, _, lb) -> Float.of_int m.bytes /. Float.max 1.0 lb)
         measured)
  in
  let opt_lbs =
    Array.of_list (List.map (fun (_, _, lb) -> lb) measured)
  in
  let successes =
    List.fold_left (fun a m -> if m.success then a + 1 else a) 0 reps
  in
  let verdict =
    Stats.binomial_accept ~trials:cfg.reps ~successes
      ~null_p:(1.0 -. cell.delta) ~significance:cfg.significance
  in
  let ratio_ceiling = Theory.ceiling cell in
  let ratio_max = Stats.max_value ratios in
  let opt_ceiling = Theory.opt_ceiling cell in
  let opt_ratio_max = Stats.max_value opt_ratios in
  let opt =
    Some
      {
        Artifact.opt_lb_bytes = Stats.mean opt_lbs;
        opt_ratio_mean = Stats.mean opt_ratios;
        opt_ratio_max;
        opt_ceiling;
        opt_pass = opt_ratio_max <= opt_ceiling;
      }
  in
  let result =
    {
      Artifact.id;
      family = Spec.protocol_family cell.protocol;
      algorithm = Spec.protocol_algorithm cell.protocol;
      sketch = Spec.sketch_label cell;
      alpha = cell.alpha;
      delta = cell.delta;
      sites = cell.sites;
      events = cell.events;
      workload = Spec.workload_to_string cell.workload;
      transport = Spec.transport_to_string cell.transport;
      faults = cell.faults;
      topology = cell.topology;
      reps = cfg.reps;
      successes;
      accept_pass = verdict.Stats.pass;
      p_value = verdict.Stats.p_value;
      err_mean = Stats.mean errs;
      err_p50 = Stats.quantile errs 0.5;
      err_p90 = Stats.quantile errs 0.9;
      err_max = Stats.max_value errs;
      bytes_mean = Stats.mean (arr (fun m -> Float.of_int m.bytes));
      ratio_mean = Stats.mean ratios;
      ratio_max;
      ratio_ceiling;
      bytes_pass = ratio_max <= ratio_ceiling;
      opt;
      msgs_mean = Stats.mean (arr (fun m -> Float.of_int m.msgs));
      wall_s;
      rep_wall_s;
      batch_span_ns;
    }
  in
  Option.iter
    (fun m ->
      Metrics.inc (Metrics.counter m "wd_eval_cells_total");
      Metrics.add (Metrics.counter m "wd_eval_reps_total") cfg.reps;
      if not (Artifact.cell_pass result) then
        Metrics.inc (Metrics.counter m "wd_eval_cells_failed");
      Metrics.observe
        (Metrics.histogram m "wd_eval_cell_wall_ms")
        (wall_s *. 1000.0))
    cfg.metrics;
  Option.iter
    (fun p ->
      p
        (Printf.sprintf
           "%-44s %d/%d in-band (p=%.3g) err p90 %.4f ratio %.3g opt %.3g \
            [%s]"
           id successes cfg.reps verdict.Stats.p_value result.Artifact.err_p90
           ratio_max opt_ratio_max
           (if Artifact.cell_pass result then "pass" else "FAIL")))
    cfg.progress;
  result

let run_grid ?(name = "custom") cfg cells =
  {
    Artifact.grid = name;
    base_seed = cfg.base_seed;
    reps = cfg.reps;
    significance = cfg.significance;
    cells = List.map (run_cell cfg) cells;
  }
