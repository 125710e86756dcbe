(* wdmon: command-line driver for the duplicate-resilient monitoring
   library.

   Subcommands:
     experiment  - reproduce a paper figure / ablation (or all of them)
     dc          - one distinct-count tracking run with chosen parameters
     ds          - one distinct-sample tracking run
     hh          - one distinct heavy-hitters tracking run
     run         - one simulation from a declarative query spec, with
                   optional --views standing satellite queries
     coord       - run a tracking protocol with sites served by relay
                   processes over a Unix-domain socket or TCP
     relay       - one relay process serving a contiguous range of sites
     eval        - run the acceptance grid and diff against a baseline
     inspect     - replay a JSONL trace into summary tables
     top         - live /metrics dashboard, or a one-shot trace view
     list        - list available experiments and workloads *)

open Cmdliner
module Experiments = Whats_different.Experiments
module Simulation = Whats_different.Simulation
module Report = Whats_different.Report
module Stream = Wd_workload.Stream
module Http = Wd_workload.Http_trace
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Network = Wd_net.Network
module Wire = Wd_net.Wire
module Transport = Wd_net.Transport
module Tcp = Wd_net.Transport_tcp
module Frame_io = Wd_net.Frame_io
module Sink = Wd_obs.Sink
module Metrics = Wd_obs.Metrics
module Trace = Wd_obs.Trace
module Summary = Wd_obs.Summary
module Espec = Wd_eval.Spec
module Runner = Wd_eval.Runner
module Artifact = Wd_eval.Artifact
module Query = Wd_view.Query

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let scale_arg =
  let doc = "Workload scale factor (1.0 = calibrated default)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"F" ~doc)

let seed_arg =
  let doc = "Random seed; equal seeds reproduce runs bit for bit." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let epsilon_arg =
  let doc = "Total relative-error budget epsilon." in
  Arg.(value & opt float 0.1 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let sites_arg =
  let doc = "Number of remote sites for synthetic workloads." in
  Arg.(value & opt int 4 & info [ "sites" ] ~docv:"K" ~doc)

let events_arg =
  let doc = "Number of stream events for synthetic workloads." in
  Arg.(value & opt int 100_000 & info [ "events" ] ~docv:"N" ~doc)

let workload_arg =
  let doc =
    "Workload: http-pairs (lightly duplicated (clientID,objectID) pairs), \
     http-clients (heavily duplicated clientIDs), http-objects (moderately \
     duplicated objectIDs), two-phase (the paper's synthetic), zipf, or \
     gossip (sensor-network style duplication)."
  in
  Arg.(
    value
    & opt (enum
             [ ("http-pairs", `Http_pairs);
               ("http-clients", `Http_clients);
               ("http-objects", `Http_objects);
               ("two-phase", `Two_phase);
               ("zipf", `Zipf);
               ("gossip", `Gossip) ])
        `Http_pairs
    & info [ "workload"; "w" ] ~docv:"NAME" ~doc)

let trace_arg =
  let doc =
    "Replay a saved trace instead of generating a workload (.csv or the \
     WDTRACE1 binary format, auto-detected by extension)."
  in
  Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc)

let faults_arg =
  let doc =
    "Inject network faults: comma-separated $(i,drop=P), $(i,dup=P), \
     $(i,corrupt=P) link probabilities and repeatable \
     $(i,crash=SITE:FROM:UNTIL) windows (update indices), e.g. \
     --faults drop=0.1,dup=0.02,crash=1:5000:8000."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let topology_arg =
  let doc =
    "Tree topology spec routing sites through intermediate aggregators: \
     $(i,flat), $(i,tree:regions=R[,fanout=F]), or an explicit \
     $(i,edges:s0>a0,a0>root,...) list.  Backbone hops are charged \
     separately from the site links in the ledger."
  in
  Arg.(value & opt (some string) None & info [ "topology" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault-injection randomness (independent of --seed)." in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let parse_faults ~fault_seed = function
  | None -> Ok Wd_net.Faults.none
  | Some spec -> Wd_net.Faults.of_spec ~seed:fault_seed spec

(* Fault-counter rows for the dc/ds reports; empty without --faults. *)
let fault_kv ~drops ~duplicates ~retries ~lost faults =
  if not (Wd_net.Faults.enabled faults) then []
  else
    [
      ("dropped transmissions", string_of_int drops);
      ("duplicate deliveries", string_of_int duplicates);
      ("retransmissions", string_of_int retries);
      ("updates lost to crashes", string_of_int lost);
    ]

let load_trace path =
  if Filename.check_suffix path ".csv" then Wd_workload.Trace_io.load_csv path
  else Wd_workload.Trace_io.load_binary path

(* ------------------------------------------------------------------ *)
(* Observability plumbing shared by dc and ds *)

let trace_out_arg =
  let doc = "Write a JSONL protocol trace of the run to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write run metrics to $(docv): Prometheus text exposition, or a JSON \
     dump when the file ends in .json."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Output files are opened before any work, so a bad path is a usage
   error naming it rather than an exception after the run. *)
let open_trace = function
  | None -> Ok None
  | Some path -> (
    match Sink.jsonl path with
    | sink -> Ok (Some sink)
    | exception Sys_error e -> Error ("--trace-out: " ^ e))

(* The run's instrumentation: a sink fanning out to the trace file and a
   metrics registry, plus the open --metrics-out channel. *)
type obs = {
  sink : Sink.t option;
  metrics : Metrics.t option;
  metrics_oc : (string * out_channel) option;
}

let build_obs ~trace_out ~metrics_out =
  Result.bind (open_trace trace_out) (fun trace ->
      match Option.map (fun path -> (path, open_out path)) metrics_out with
      | exception Sys_error e ->
        Option.iter Sink.close trace;
        Error ("--metrics-out: " ^ e)
      | metrics_oc ->
        let metrics = Option.map (fun _ -> Metrics.create ()) metrics_oc in
        let sinks =
          Option.to_list trace
          @ Option.to_list (Option.map Sink.metrics metrics)
        in
        let sink = match sinks with [] -> None | l -> Some (Sink.fanout l) in
        Ok { sink; metrics; metrics_oc })

let finish_obs ~trace_out obs =
  Option.iter Sink.close obs.sink;
  Option.iter
    (fun path -> Printf.printf "trace written to %s\n" path)
    trace_out;
  match (obs.metrics_oc, obs.metrics) with
  | Some (path, oc), Some m ->
    if Filename.check_suffix path ".json" then
      output_string oc (Wd_obs.Json.to_string (Metrics.to_json m))
    else output_string oc (Metrics.to_prometheus m);
    close_out oc;
    Printf.printf "metrics written to %s\n" path
  | _ -> ()

(* --views: satellite standing queries riding on a run's stream. *)
let views_arg =
  let doc =
    "Satellite standing views sharing the run's stream: a file of one \
     query spec per line ($(i,#) comments allowed), or $(i,;)-separated \
     specs, e.g. \
     $(i,dc:ls:sketch=fanout,mod=10/3;ds:lco:threshold=200).  Per-view \
     answers are reported at the end of the run and, with \
     $(b,--trace-out), as $(i,view_report) trace events."
  in
  Arg.(
    value & opt (some string) None & info [ "views" ] ~docv:"FILE|SPEC" ~doc)

let parse_views = function
  | None -> Ok []
  | Some s ->
    if Sys.file_exists s then Query.of_file s
    else
      let specs =
        String.split_on_char ';' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | sp :: rest -> (
          match Query.of_spec sp with
          | Ok q -> go (q :: acc) rest
          | Error e -> Error (Printf.sprintf "--views %S: %s" sp e))
      in
      go [] specs

let view_report_table (reports : Simulation.view_report array) =
  if Array.length reports > 1 then begin
    print_newline ();
    Report.print_table
      ~header:[ "view"; "spec"; "estimate"; "routed"; "bytes" ]
      (Array.to_list reports
      |> List.map (fun (vr : Simulation.view_report) ->
             Report.
               [
                 S vr.Simulation.view_label;
                 S vr.Simulation.view_spec;
                 F vr.Simulation.view_estimate;
                 I vr.Simulation.view_routed;
                 I vr.Simulation.view_total_bytes;
               ]))
  end

let build_workload which ~scale ~seed ~sites ~events =
  match which with
  | `Http_pairs ->
    let cfg = Http.scaled ~seed scale in
    Http.view cfg Http.Client_object_pair Http.Per_region (Http.generate cfg)
  | `Http_clients ->
    let cfg = Http.scaled ~seed scale in
    Http.view cfg Http.Client_id Http.Per_region (Http.generate cfg)
  | `Http_objects ->
    let cfg = Http.scaled ~seed scale in
    Http.view cfg Http.Object_id Http.Per_region (Http.generate cfg)
  | `Two_phase ->
    let per_site = max 20 (events / (sites * (sites + 1))) in
    Wd_workload.Two_phase.generate ~seed ~sites ~per_site ()
  | `Zipf ->
    Wd_workload.Stream_gen.zipf ~seed ~sites ~events
      ~universe:(max 16 (events / 3))
      ()
  | `Gossip ->
    Wd_workload.Stream_gen.sensor_gossip ~seed ~sites
      ~readings:(max 1 (events / 4))
      ~gossip_rounds:3 ()

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let ids_arg =
    let doc =
      "Experiment ids (fig5a..fig7c, ablation_*); runs everything when \
       omitted."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run ids scale seed epsilon =
    let options = { Experiments.default_options with scale; seed; epsilon } in
    match ids with
    | [] ->
      List.iter Experiments.print (Experiments.all ~options ());
      `Ok ()
    | ids -> (
      try
        List.iter
          (fun id ->
            match Experiments.by_id id with
            | Some f -> Experiments.print (f options)
            | None -> raise Exit)
          ids;
        `Ok ()
      with Exit ->
        `Error
          (false,
           Printf.sprintf "unknown experiment; known ids: %s"
             (String.concat ", " Experiments.ids)))
  in
  let doc = "Reproduce the paper's figures and the ablations." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(ret (const run $ ids_arg $ scale_arg $ seed_arg $ epsilon_arg))

(* ------------------------------------------------------------------ *)
(* dc *)

let dc_cmd =
  let algo_arg =
    let doc = "Tracking algorithm: NS, SC, SS, LS or EC." in
    Arg.(
      value
      & opt (enum (List.map (fun a -> (Dc.algorithm_to_string a, a)) Dc.all_algorithms))
          Dc.LS
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)
  in
  let theta_frac_arg =
    let doc = "Lag share of the error budget (theta = F * epsilon)." in
    Arg.(value & opt float 0.3 & info [ "theta-frac" ] ~docv:"F" ~doc)
  in
  let run algorithm theta_frac workload trace scale seed epsilon sites events
      trace_out metrics_out faults_spec fault_seed =
    match
      let ( let* ) = Result.bind in
      let* faults = parse_faults ~fault_seed faults_spec in
      let* obs = build_obs ~trace_out ~metrics_out in
      Ok (faults, obs)
    with
    | Error e -> `Error (false, e)
    | Ok (faults, obs) ->
      let stream =
        match trace with
        | Some path -> load_trace path
        | None -> build_workload workload ~scale ~seed ~sites ~events
      in
      let theta = theta_frac *. epsilon in
      let alpha = epsilon -. theta in
      let r =
        Simulation.run ~seed ?sink:obs.sink ?metrics:obs.metrics ~faults
          (Query.dc ~theta ~alpha algorithm)
          stream
      in
      let exact = Simulation.exact_dc_bytes stream in
      Report.print_section
        (Printf.sprintf "distinct count tracking (%s)"
           (Dc.algorithm_to_string algorithm));
      Report.print_kv
        ([
           ("sites", string_of_int (Stream.num_sites stream));
           ("updates", string_of_int r.Simulation.updates);
           ("true distinct", string_of_int r.Simulation.final_truth);
           ("estimate", Printf.sprintf "%.0f" r.Simulation.final_estimate);
           ( "relative error",
             Printf.sprintf "%.4f"
               (Float.abs
                  (r.Simulation.final_estimate
                  -. Float.of_int r.Simulation.final_truth)
               /. Float.of_int (max 1 r.Simulation.final_truth)) );
           ("bytes up / down",
            Printf.sprintf "%d / %d" r.Simulation.bytes_up
              r.Simulation.bytes_down);
           ("total bytes", string_of_int r.Simulation.total_bytes);
           ("exact (EC) bytes", string_of_int exact);
           ( "cost ratio",
             Printf.sprintf "%.3e"
               (Float.of_int r.Simulation.total_bytes /. Float.of_int exact)
           );
           ("site->coord messages", string_of_int r.Simulation.sends);
         ]
        @ fault_kv ~drops:r.Simulation.drops
            ~duplicates:r.Simulation.duplicates
            ~retries:r.Simulation.retries ~lost:r.Simulation.lost_updates
            faults);
      (* The asymmetric information flow the paper's conclusion highlights:
         per-direction traffic differs sharply across algorithms. *)
      Printf.printf "up/down asymmetry    : %.2f\n"
        (Float.of_int r.Simulation.bytes_up
        /. Float.of_int (max 1 r.Simulation.bytes_down));
      finish_obs ~trace_out obs;
      `Ok ()
  in
  let doc = "Run one distinct-count tracking simulation." in
  Cmd.v (Cmd.info "dc" ~doc)
    Term.(
      ret
        (const run $ algo_arg $ theta_frac_arg $ workload_arg $ trace_arg
        $ scale_arg $ seed_arg $ epsilon_arg $ sites_arg $ events_arg
        $ trace_out_arg $ metrics_out_arg $ faults_arg $ fault_seed_arg))

(* ------------------------------------------------------------------ *)
(* ds *)

let ds_cmd =
  let algo_arg =
    let doc = "Tracking algorithm: LCO, GCS, LCS or EDS." in
    Arg.(
      value
      & opt (enum (List.map (fun a -> (Ds.algorithm_to_string a, a)) Ds.all_algorithms))
          Ds.LCO
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)
  in
  let threshold_arg =
    let doc = "Distinct-sample size bound T." in
    Arg.(value & opt int 500 & info [ "threshold"; "T" ] ~docv:"T" ~doc)
  in
  let theta_arg =
    let doc = "Count lag budget theta." in
    Arg.(value & opt float 0.25 & info [ "theta" ] ~docv:"THETA" ~doc)
  in
  let run algorithm threshold theta workload trace scale seed sites events
      trace_out metrics_out faults_spec fault_seed =
    match
      let ( let* ) = Result.bind in
      let* faults = parse_faults ~fault_seed faults_spec in
      let* obs = build_obs ~trace_out ~metrics_out in
      Ok (faults, obs)
    with
    | Error e -> `Error (false, e)
    | Ok (faults, obs) ->
      let stream =
        match trace with
        | Some path -> load_trace path
        | None -> build_workload workload ~scale ~seed ~sites ~events
      in
      let r =
        Simulation.run ~seed ?sink:obs.sink ~faults
          (Query.ds ~theta ~threshold algorithm)
          stream
      in
      let exact = Simulation.exact_ds_bytes stream in
      let level, sample, max_count_error =
        match r.Simulation.aux with
        | Simulation.Ds_aux { level; sample; max_count_error } ->
          (level, sample, max_count_error)
        | _ -> assert false
      in
      let module D = Wd_aggregate.Duplication in
      Report.print_section
        (Printf.sprintf "distinct sample tracking (%s)"
           (Ds.algorithm_to_string algorithm));
      Report.print_kv
        ([
           ("sites", string_of_int (Stream.num_sites stream));
           ("updates", string_of_int r.Simulation.updates);
           ("sample size / T",
            Printf.sprintf "%d / %d" (List.length sample) threshold);
           ("sampling level", string_of_int level);
           ("distinct estimate",
            Printf.sprintf "%.0f" r.Simulation.final_estimate);
           ("true distinct", string_of_int (Stream.distinct_count stream));
           ("unique-event estimate",
            Printf.sprintf "%.0f" (D.unique_count ~level sample));
           ( "median duplication",
             match D.median_count sample with
             | Some m -> string_of_int m
             | None -> "n/a" );
           ("max count error", Printf.sprintf "%.4f" max_count_error);
           ("total bytes", string_of_int r.Simulation.total_bytes);
           ("exact (EDS) bytes", string_of_int exact);
           ( "cost ratio",
             Printf.sprintf "%.3e"
               (Float.of_int r.Simulation.total_bytes /. Float.of_int exact)
           );
         ]
        @ fault_kv ~drops:r.Simulation.drops
            ~duplicates:r.Simulation.duplicates
            ~retries:r.Simulation.retries ~lost:r.Simulation.lost_updates
            faults);
      finish_obs ~trace_out obs;
      `Ok ()
  in
  let doc = "Run one distinct-sample tracking simulation." in
  Cmd.v (Cmd.info "ds" ~doc)
    Term.(
      ret
        (const run $ algo_arg $ threshold_arg $ theta_arg $ workload_arg
        $ trace_arg $ scale_arg $ seed_arg $ sites_arg $ events_arg
        $ trace_out_arg $ metrics_out_arg $ faults_arg $ fault_seed_arg))

(* ------------------------------------------------------------------ *)
(* hh *)

let hh_cmd =
  let algo_arg =
    let doc = "Tracking algorithm: NS, SC, SS or LS." in
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun a -> (Dc.algorithm_to_string a, a))
                Dc.approximate_algorithms))
          Dc.LS
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)
  in
  let top_arg =
    let doc = "Report the top-K distinct heavy hitters." in
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~docv:"K" ~doc)
  in
  let run algorithm top_k scale seed =
    let cfg = Http.scaled ~seed scale in
    let pairs =
      Simulation.pair_stream_of_requests cfg Http.Per_region (Http.generate cfg)
    in
    let r =
      Simulation.run ~seed ~top_k
        (Query.hh
           ~config:{ Wd_aggregate.Fm_array.rows = 3; cols = 500; bitmaps = 10 }
           ~theta:0.03 algorithm)
        (Simulation.stream_of_pairs pairs)
    in
    let avg_norm_error, topk_recall, exact_bytes =
      match r.Simulation.aux with
      | Simulation.Hh_aux { avg_norm_error; topk_recall; exact_bytes } ->
        (avg_norm_error, topk_recall, exact_bytes)
      | _ -> assert false
    in
    Report.print_section
      (Printf.sprintf "distinct heavy hitters (%s): objects by distinct clients"
         (Dc.algorithm_to_string algorithm));
    Report.print_kv
      [
        ("updates", string_of_int r.Simulation.updates);
        ("total bytes", string_of_int r.Simulation.total_bytes);
        ("exact-pair bytes", string_of_int exact_bytes);
        ( "cost ratio",
          Printf.sprintf "%.3e"
            (Float.of_int r.Simulation.total_bytes
            /. Float.of_int exact_bytes) );
        (Printf.sprintf "recall@%d" top_k,
         Printf.sprintf "%.2f" topk_recall);
        ("normalized degree error", Printf.sprintf "%.5f" avg_norm_error);
      ]
  in
  let doc = "Run one distinct heavy-hitters tracking simulation." in
  Cmd.v (Cmd.info "hh" ~doc)
    Term.(const run $ algo_arg $ top_arg $ scale_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* run: the generic entry point — one declarative query, any protocol,
   plus optional satellite views sharing the stream *)

let run_cmd =
  let query_arg =
    let doc =
      "The primary query spec: $(i,family:alg[:key=value,...]), e.g. \
       $(i,dc:ls:alpha=0.07,theta=0.03) or $(i,ds:lco:threshold=500).  \
       Families: dc, ds, hh, window, yzhh, yzq."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let run spec views_spec workload trace scale seed sites events trace_out
      metrics_out faults_spec fault_seed topology_spec =
    match
      let ( let* ) = Result.bind in
      let* q = Query.of_spec spec in
      let* views = parse_views views_spec in
      let* faults = parse_faults ~fault_seed faults_spec in
      let* obs = build_obs ~trace_out ~metrics_out in
      Ok (q, views, faults, obs)
    with
    | Error e -> `Error (false, e)
    | Ok (q, views, faults, obs) -> (
      let stream =
        match trace with
        | Some path -> load_trace path
        | None -> (
          match q.Query.protocol with
          | Query.Hh _ ->
            (* HH queries consume packed (v, w) pairs; satellites then
               track the packed pair keys. *)
            let cfg = Http.scaled ~seed scale in
            Simulation.stream_of_pairs
              (Simulation.pair_stream_of_requests cfg Http.Per_region
                 (Http.generate cfg))
          | _ -> build_workload workload ~scale ~seed ~sites ~events)
      in
      (* The tree is validated against the stream's own site count, which
         a trace may dictate independently of --sites. *)
      match
        match topology_spec with
        | None -> Ok None
        | Some s ->
          Result.map Option.some
            (Wd_net.Topology.of_spec ~sites:(Stream.num_sites stream) s)
      with
      | Error e -> `Error (false, e)
      | Ok topology -> (
        match
          Simulation.run ~seed ?sink:obs.sink ?metrics:obs.metrics ?topology
            ~faults ~views q stream
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | r ->
          Report.print_section
            (Printf.sprintf "continuous run: %s" (Query.to_spec q));
          Report.print_kv
            ([
               ( "views",
                 string_of_int (Array.length r.Simulation.view_reports) );
               ("sites", string_of_int (Stream.num_sites stream));
               ("updates", string_of_int r.Simulation.updates);
               ("estimate", Printf.sprintf "%.1f" r.Simulation.final_estimate);
               ("true distinct", string_of_int r.Simulation.final_truth);
               ( "bytes up / down",
                 Printf.sprintf "%d / %d" r.Simulation.bytes_up
                   r.Simulation.bytes_down );
               ("total bytes", string_of_int r.Simulation.total_bytes);
               ("site->coord messages", string_of_int r.Simulation.sends);
             ]
            @ (match topology with
              | None -> []
              | Some t ->
                [
                  ("topology", Wd_net.Topology.to_spec t);
                  ( "backbone bytes",
                    string_of_int r.Simulation.backbone_bytes );
                  ( "grand total bytes",
                    string_of_int
                      (r.Simulation.total_bytes + r.Simulation.backbone_bytes)
                  );
                ])
            @ fault_kv ~drops:r.Simulation.drops
                ~duplicates:r.Simulation.duplicates
                ~retries:r.Simulation.retries ~lost:r.Simulation.lost_updates
                faults);
          view_report_table r.Simulation.view_reports;
          finish_obs ~trace_out obs;
          `Ok ()))
  in
  let doc =
    "Run one simulation from a declarative query spec, optionally with \
     satellite standing views sharing the stream."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ query_arg $ views_arg $ workload_arg $ trace_arg
        $ scale_arg $ seed_arg $ sites_arg $ events_arg $ trace_out_arg
        $ metrics_out_arg $ faults_arg $ fault_seed_arg $ topology_arg))

(* ------------------------------------------------------------------ *)
(* coord / relay: the stream carrier, sites served by relay processes *)

let socket_path_arg =
  let doc =
    "Unix-domain socket path shared by the coordinator and its relays, \
     used when no TCP port is given (keep it short: the OS caps socket \
     paths around 100 bytes)."
  in
  Arg.(
    value & opt string "/tmp/wdmon.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let socket_timeout_arg =
  let doc = "Socket send/receive timeout in seconds." in
  Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"S" ~doc)

(* The carrier's address as [Transport_tcp]'s optional [?port ?path]
   pair: the TCP port when one is given, else the socket path. *)
let address ~port ~path =
  match port with Some _ -> (port, None) | None -> (None, Some path)

let relay_cmd =
  let port_arg =
    let doc =
      "Coordinator TCP port (see $(b,wdmon coord --tcp-port)); without \
       it the relay connects to the $(b,--socket) path."
    in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let first_site_arg =
    let doc = "First 0-based site index this relay serves." in
    Arg.(value & opt int 0 & info [ "first-site" ] ~docv:"I" ~doc)
  in
  let count_arg =
    let doc = "Number of contiguous sites this relay serves." in
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"N" ~doc)
  in
  let connect_timeout_arg =
    let doc =
      "Wall-clock deadline in seconds for the initial connect (retried \
       while the coordinator is still binding)."
    in
    Arg.(value & opt float 10.0 & info [ "connect-timeout" ] ~docv:"S" ~doc)
  in
  let run port path first_site count timeout connect_timeout =
    let port, path = address ~port ~path in
    match
      Tcp.Relay.run ~connect_timeout ~timeout ?port ?path ~first_site ~count ()
    with
    | r ->
      Printf.printf
        "relay %d+%d: received %d frames / %d bytes, sent %d frames / %d \
         bytes\n"
        first_site count r.Frame_io.frames_received r.Frame_io.bytes_received
        r.Frame_io.frames_sent r.Frame_io.bytes_sent;
      `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let doc =
    "Run one relay: connect to a $(b,wdmon coord) process on its TCP \
     $(b,--port) or its Unix-domain $(b,--socket), claim a contiguous \
     range of sites, answer its (batched) frames until told to finish, \
     and print the relay-side byte counters."
  in
  Cmd.v (Cmd.info "relay" ~doc)
    Term.(
      ret
        (const run $ port_arg $ socket_path_arg $ first_site_arg $ count_arg
        $ socket_timeout_arg $ connect_timeout_arg))

(* Split [k] sites into [n] contiguous ranges, as evenly as possible. *)
let site_ranges ~k ~n =
  let n = max 1 (min n k) in
  let base = k / n and rem = k mod n in
  let rec go first i acc =
    if i = n then List.rev acc
    else
      let count = base + if i < rem then 1 else 0 in
      go (first + count) (i + 1) ((first, count) :: acc)
  in
  go 0 0 []

let coord_cmd =
  let protocol_arg =
    let doc = "Protocol to run over the wire: dc (LS) or ds (LCO)." in
    Arg.(
      value
      & opt (enum [ ("dc", `Dc); ("ds", `Ds) ]) `Dc
      & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc)
  in
  let spawn_arg =
    let doc =
      "Fork the relays ($(b,--relays)) in this process's image instead of \
       waiting for externally started $(b,wdmon relay) processes."
    in
    Arg.(value & flag & info [ "spawn" ] ~doc)
  in
  let metrics_port_arg =
    let doc =
      "Serve $(b,GET /metrics) (Prometheus text exposition) on \
       127.0.0.1:$(docv) for the duration of the run, polled from the \
       coordinator's event loop; 0 lets the kernel pick a free port \
       (printed at startup)."
    in
    Arg.(
      value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc)
  in
  let spans_flag =
    let doc =
      "Record causal wall-clock spans: every message, broadcast and \
       tracker batch becomes a span event, and frames carry span \
       contexts across the process boundary (cross-process round-trip \
       timing).  Combine with $(b,--trace-out) to keep the spans and/or \
       $(b,--metrics-port) to see latency histograms."
    in
    Arg.(value & flag & info [ "spans" ] ~doc)
  in
  let tcp_port_arg =
    let doc =
      "Listen on 127.0.0.1:$(docv) instead of the $(b,--socket) path (0 \
       picks an ephemeral port, printed at startup)."
    in
    Arg.(value & opt (some int) None & info [ "tcp-port" ] ~docv:"PORT" ~doc)
  in
  let relays_arg =
    let doc =
      "With $(b,--spawn): fork this many relay processes, each carrying \
       an even contiguous slice of the sites over one connection (one \
       site each when it is at least the site count)."
    in
    Arg.(value & opt int 4 & info [ "relays" ] ~docv:"N" ~doc)
  in
  let run protocol spawn path timeout workload scale seed epsilon sites events
      faults_spec fault_seed metrics_port spans trace_out tcp_port relays
      views_spec =
    match
      let ( let* ) = Result.bind in
      let* faults = parse_faults ~fault_seed faults_spec in
      let* views = parse_views views_spec in
      let* trace_sink = open_trace trace_out in
      Ok (faults, views, trace_sink)
    with
    | Error e -> `Error (false, e)
    | Ok (faults, views, trace_sink) ->
      let stream = build_workload workload ~scale ~seed ~sites ~events in
      let k = Stream.num_sites stream in
      let port, path = address ~port:tcp_port ~path in
      let children = ref [] in
      (* Relay children: serve frames, then exit without flushing the
         parent's inherited stdout buffer. *)
      let spawn_children bound =
        let port = Option.map (fun _ -> bound) port in
        children :=
          List.map
            (fun (first_site, count) ->
              match Unix.fork () with
              | 0 ->
                (try
                   ignore
                     (Tcp.Relay.run ~timeout ?port ?path ~first_site ~count ()
                       : Frame_io.site_report)
                 with _ -> ());
                Unix._exit 0
              | pid -> pid)
            (site_ranges ~k ~n:relays)
      in
      let reap () =
        List.iter (fun pid -> ignore (Unix.waitpid [] pid)) !children
      in
      let where bound =
        Option.value path ~default:(Printf.sprintf "127.0.0.1:%d" bound)
      in
      (match
         Tcp.Coordinator.connect ~timeout ?port ?path ~sites:k
           ~on_listening:(fun bound ->
             Printf.printf "listening on %s\n%!" (where bound);
             if spawn then spawn_children bound)
           ()
       with
      | exception Failure msg ->
        List.iter
          (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          !children;
        reap ();
        `Error (false, msg)
      | coord ->
        let transport = Tcp.Coordinator.pack coord in
        (* Live telemetry: a metrics registry fed by the event sink, a
           scrape endpoint polled from the coordinator's clock ticks,
           and an optional span trace. *)
        let metrics = Option.map (fun _ -> Metrics.create ()) metrics_port in
        let sinks =
          Option.to_list trace_sink
          @ Option.to_list (Option.map Sink.metrics metrics)
        in
        let sink =
          match sinks with [] -> None | l -> Some (Sink.fanout l)
        in
        let http =
          Option.map
            (fun port ->
              let h = Wd_net.Metrics_http.create ~port () in
              Printf.printf "metrics: listening on http://127.0.0.1:%d/metrics\n%!"
                (Wd_net.Metrics_http.port h);
              h)
            metrics_port
        in
        (match (http, metrics) with
        | Some h, Some m ->
          (* Polled on every clock tick; throttle the accept syscall to
             one per 64 ticks. *)
          let tick = ref 0 in
          Tcp.Coordinator.set_on_poll coord
            (Some
               (fun () ->
                 incr tick;
                 if !tick land 63 = 0 then
                   Wd_net.Metrics_http.poll h ~body:(fun () ->
                       Metrics.to_prometheus m)))
        | _ -> ());
        (* The runs close the transport on completion, which finishes every
           relay and collects its stats frame. *)
        let label, estimate, truth, view_reports =
          match protocol with
          | `Dc ->
            let theta = 0.3 *. epsilon in
            let alpha = epsilon -. theta in
            let r =
              Simulation.run ~seed ~transport ~faults ?sink ?metrics ~spans
                ~views (Query.dc ~theta ~alpha Dc.LS) stream
            in
            ( "distinct count (LS)",
              r.Simulation.final_estimate,
              r.Simulation.final_truth,
              r.Simulation.view_reports )
          | `Ds ->
            let r =
              Simulation.run ~seed ~transport ~faults ?sink ~spans ~views
                (Query.ds ~theta:0.25 ~threshold:500 Ds.LCO)
                stream
            in
            ( "distinct sample (LCO)",
              r.Simulation.final_estimate,
              Stream.distinct_count stream,
              r.Simulation.view_reports )
        in
        reap ();
        (* Serve any scrape that arrived after the last clock tick, then
           stop listening. *)
        (match (http, metrics) with
        | Some h, Some m ->
          Wd_net.Metrics_http.poll h ~body:(fun () -> Metrics.to_prometheus m);
          Wd_net.Metrics_http.close h
        | _ -> ());
        Option.iter Sink.close trace_sink;
        Option.iter
          (fun path -> Printf.printf "trace written to %s\n" path)
          trace_out;
        let net = Transport.ledger transport in
        let ws = Option.get (Transport.wire_stats transport) in
        let extra = Wire.Frame.header_bytes - Wire.header_bytes in
        let expect_up =
          Network.bytes_up net - ws.Transport.skipped_up
          + (ws.Transport.frames_up * extra)
        in
        let expect_down =
          Network.bytes_down net - ws.Transport.skipped_down
          + (ws.Transport.frames_down * extra)
        in
        let reports =
          List.map (fun (_, _, r) -> r) (Tcp.Coordinator.reports coord)
        in
        let missing = List.length (List.filter Option.is_none reports) in
        let sum f =
          List.fold_left
            (fun acc r -> acc + Option.fold ~none:0 ~some:f r)
            0 reports
        in
        let relay_received = sum (fun r -> r.Frame_io.bytes_received) in
        let relay_sent = sum (fun r -> r.Frame_io.bytes_sent) in
        (* Span context blocks (frames stamped when a span recorder is
           attached) are wire overhead outside wire_bytes_*; the relays'
           raw byte reports include them. *)
        let expect_received =
          ws.Transport.wire_bytes_down + ws.Transport.radio_copy_bytes
          + ws.Transport.control_bytes
          + (ws.Transport.span_frames_down * Wire.Frame.span_bytes)
          + (ws.Transport.batch_envelopes * Wire.Frame.header_bytes)
        in
        let expect_sent =
          ws.Transport.wire_bytes_up
          + (ws.Transport.span_frames_up * Wire.Frame.span_bytes)
        in
        let check name got want =
          Printf.printf "%-22s: %d vs %d  [%s]\n" name got want
            (if got = want then "ok" else "MISMATCH");
          got = want
        in
        Report.print_section
          (Printf.sprintf "%s over %s" label
             (where (Tcp.Coordinator.port coord)));
        Report.print_kv
          ([
            ("sites", string_of_int k);
            ("updates", string_of_int (Stream.length stream));
            ("true distinct", string_of_int truth);
            ("estimate", Printf.sprintf "%.0f" estimate);
            ( "ledger bytes up / down",
              Printf.sprintf "%d / %d" (Network.bytes_up net)
                (Network.bytes_down net) );
            ( "wire frames up / down",
              Printf.sprintf "%d / %d" ws.Transport.frames_up
                ws.Transport.frames_down );
            ( "wire bytes up / down",
              Printf.sprintf "%d / %d" ws.Transport.wire_bytes_up
                ws.Transport.wire_bytes_down );
            ( "control frames / bytes",
              Printf.sprintf "%d / %d" ws.Transport.control_frames
                ws.Transport.control_bytes );
            ("radio copy bytes", string_of_int ws.Transport.radio_copy_bytes);
            ( "skipped up / down",
              Printf.sprintf "%d / %d" ws.Transport.skipped_up
                ws.Transport.skipped_down );
            ("site reconnects", string_of_int ws.Transport.reconnects);
            ( "batch envelopes / inner frames",
              Printf.sprintf "%d / %d" ws.Transport.batch_envelopes
                ws.Transport.batch_inner_frames );
          ]
          @ (if spans then
               [
                 ( "span frames up / down",
                   Printf.sprintf "%d / %d" ws.Transport.span_frames_up
                     ws.Transport.span_frames_down );
               ]
             else [])
          @ Option.fold ~none:[]
              ~some:(fun h ->
                [
                  ( "metrics scrapes served",
                    string_of_int (Wd_net.Metrics_http.served h) );
                ])
              http);
        view_report_table view_reports;
        print_endline "reconciliation (got vs expected):";
        let ok_up = check "wire bytes up" ws.Transport.wire_bytes_up expect_up in
        let ok_down =
          check "wire bytes down" ws.Transport.wire_bytes_down expect_down
        in
        let ok_recv =
          missing = 0 && check "relay bytes received" relay_received expect_received
        in
        let ok_sent =
          missing = 0 && check "relay bytes sent" relay_sent expect_sent
        in
        if missing > 0 then
          Printf.printf "%d site(s) never reported final stats\n" missing;
        if ok_up && ok_down && ok_recv && ok_sent then `Ok ()
        else `Error (false, "ledger/wire reconciliation failed"))
  in
  let doc =
    "Run a tracking protocol with sites served by relay processes, each \
     carrying a contiguous range of sites over one connection to a \
     Unix-domain socket or, with $(b,--tcp-port), a TCP port — then \
     reconcile the simulator byte ledger against the bytes that actually \
     crossed the wire (exit status reflects the reconciliation)."
  in
  Cmd.v (Cmd.info "coord" ~doc)
    Term.(
      ret
        (const run $ protocol_arg $ spawn_arg $ socket_path_arg
        $ socket_timeout_arg $ workload_arg $ scale_arg $ seed_arg
        $ epsilon_arg $ sites_arg $ events_arg $ faults_arg $ fault_seed_arg
        $ metrics_port_arg $ spans_flag $ trace_out_arg $ tcp_port_arg
        $ relays_arg $ views_arg))

(* ------------------------------------------------------------------ *)
(* eval *)

let eval_cmd =
  let grid_arg =
    let small =
      ( `Small,
        Arg.info [ "small" ]
          ~doc:"Run the committed 20-cell acceptance grid (the default)." )
    in
    let full =
      ( `Full,
        Arg.info [ "full" ]
          ~doc:
            "Run the full matrix: every DC/DS algorithm, the two-phase and \
             HTTP workloads, fault cells, HH and window trackers." )
    in
    Arg.(value & vflag `Small [ small; full ])
  in
  let reps_arg =
    let doc =
      "Seeded repetitions per cell; the binomial acceptance test needs at \
       least 5."
    in
    Arg.(value & opt int 5 & info [ "reps"; "R" ] ~docv:"R" ~doc)
  in
  let significance_arg =
    let doc =
      "Rejection level of the binomial acceptance test (a cell fails only \
       when its in-band count is this implausible under the configured \
       confidence)."
    in
    Arg.(
      value & opt float 0.005 & info [ "significance" ] ~docv:"P" ~doc)
  in
  let out_arg =
    let doc = "Write the wd-eval/1 JSON artifact to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let csv_arg =
    let doc = "Also write the per-cell results as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let diff_arg =
    let doc =
      "Diff this run against the baseline artifact at $(docv); exit \
       non-zero on any regression."
    in
    Arg.(value & opt (some string) None & info [ "diff" ] ~docv:"BASELINE" ~doc)
  in
  let update_arg =
    let doc =
      "Write this run as the new baseline (to the $(b,--diff) path, or \
       EVAL_BASELINE.json) instead of diffing."
    in
    Arg.(value & flag & info [ "update" ] ~doc)
  in
  let handicap_arg =
    let doc =
      "Injected-estimator-bug dial for self-tests: scale the sketch error \
       budget so a value of 2 emulates halving the FM repetitions.  The \
       grid is expected to FAIL for values above 1."
    in
    Arg.(
      value & opt float 1.0 & info [ "inject-handicap" ] ~docv:"H" ~doc)
  in
  let run grid reps seed significance handicap out csv diff_path update
      metrics_out =
    if reps < 1 then `Error (false, "--reps must be >= 1")
    else begin
      let name = match grid with `Small -> "small" | `Full -> "full" in
      let cells = Option.get (Espec.by_name name) in
      let metrics = Option.map (fun _ -> Metrics.create ()) metrics_out in
      let cfg =
        {
          Runner.default_config with
          reps;
          base_seed = seed;
          significance;
          handicap;
          progress = Some (fun line -> Printf.eprintf "%s\n%!" line);
          metrics;
        }
      in
      let artifact = Runner.run_grid ~name cfg cells in
      Report.print_section
        (Printf.sprintf "eval grid %s: %d cells x %d reps, seed %d" name
           (List.length artifact.Artifact.cells)
           reps seed);
      Report.print_table
        ~header:
          [ "cell"; "in-band"; "p-value"; "err p90"; "ratio"; "verdict" ]
        (List.map
           (fun (c : Artifact.cell_result) ->
             Report.
               [
                 S c.id;
                 S (Printf.sprintf "%d/%d" c.successes c.reps);
                 S (Printf.sprintf "%.3g" c.p_value);
                 S (Printf.sprintf "%.4f" c.err_p90);
                 S (Printf.sprintf "%.3g" c.ratio_max);
                 S (if Artifact.cell_pass c then "pass" else "FAIL");
               ])
           artifact.Artifact.cells);
      Option.iter
        (fun path ->
          Artifact.save ~path artifact;
          Printf.printf "artifact written to %s\n" path)
        out;
      Option.iter
        (fun path ->
          Artifact.save_csv ~path artifact;
          Printf.printf "csv written to %s\n" path)
        csv;
      (match (metrics_out, metrics) with
      | Some path, Some m ->
        let oc = open_out path in
        if Filename.check_suffix path ".json" then
          output_string oc (Wd_obs.Json.to_string (Metrics.to_json m))
        else output_string oc (Metrics.to_prometheus m);
        close_out oc;
        Printf.printf "metrics written to %s\n" path
      | _ -> ());
      let acceptance_ok = Artifact.pass artifact in
      if not acceptance_ok then
        print_endline "acceptance: FAIL (see table above)";
      if update then begin
        let path = Option.value diff_path ~default:"EVAL_BASELINE.json" in
        Artifact.save ~path artifact;
        Printf.printf "baseline updated: %s\n" path;
        if acceptance_ok then `Ok ()
        else `Error (false, "grid failed acceptance (baseline written anyway)")
      end
      else
        match diff_path with
        | None ->
          if acceptance_ok then `Ok ()
          else `Error (false, "grid failed acceptance")
        | Some path -> (
          match Artifact.load path with
          | Error e ->
            `Error (false, Printf.sprintf "cannot load baseline %s: %s" path e)
          | Ok baseline ->
            let d = Artifact.diff ~baseline ~current:artifact in
            List.iter
              (fun n -> Printf.printf "note: %s\n" n)
              d.Artifact.notes;
            List.iter
              (fun r -> Printf.printf "regression: %s\n" r)
              d.Artifact.regressions;
            if Artifact.clean d && acceptance_ok then begin
              print_endline "baseline diff: clean";
              `Ok ()
            end
            else if not acceptance_ok then
              `Error (false, "grid failed acceptance")
            else
              `Error
                ( false,
                  Printf.sprintf "%d regression(s) against %s"
                    (List.length d.Artifact.regressions)
                    path ))
    end
  in
  let doc =
    "Run the experiment-matrix acceptance grid (protocol x sketch x alpha \
     over seeded workloads), emit the versioned wd-eval/1 artifact, and \
     gate on the binomial acceptance test and the committed baseline."
  in
  Cmd.v (Cmd.info "eval" ~doc)
    Term.(
      ret
        (const run $ grid_arg $ reps_arg $ seed_arg $ significance_arg
        $ handicap_arg $ out_arg $ csv_arg $ diff_arg $ update_arg
        $ metrics_out_arg))

(* ------------------------------------------------------------------ *)
(* workload *)

let workload_cmd =
  let out_arg =
    let doc = "Output file (.csv for text, anything else for binary)." in
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run workload out scale seed sites events =
    let stream = build_workload workload ~scale ~seed ~sites ~events in
    if Filename.check_suffix out ".csv" then
      Wd_workload.Trace_io.save_csv out stream
    else Wd_workload.Trace_io.save_binary out stream;
    Printf.printf "wrote %d events (%d sites, %d distinct, dup %.2f) to %s\n"
      (Stream.length stream) (Stream.num_sites stream)
      (Stream.distinct_count stream)
      (Stream.duplication_factor stream)
      out
  in
  let doc = "Generate a workload and save it as a replayable trace." in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      const run $ workload_arg $ out_arg $ scale_arg $ seed_arg $ sites_arg
      $ events_arg)

(* ------------------------------------------------------------------ *)
(* inspect *)

(* Load a JSONL trace from a file path, or from stdin when the path is
   "-" (so traces can be piped straight out of a run or a filter). *)
let read_trace_events path =
  if path = "-" then
    Result.map List.rev
      (Trace.fold_channel ~name:"<stdin>"
         ~f:(fun acc ev -> ev :: acc)
         ~init:[] stdin)
  else if Sys.file_exists path then Trace.read_file path
  else Error (Printf.sprintf "no such trace file: %s" path)

(* Humanize a nanosecond duration for dashboards. *)
let fmt_ns ns =
  if Float.is_nan ns then "-"
  else if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

let span_stats_table (stats : (string * Summary.span_stat) list) =
  Report.print_table
    ~header:[ "span"; "count"; "p50"; "p90"; "max" ]
    (List.map
       (fun (name, (st : Summary.span_stat)) ->
         Report.
           [
             S name;
             I st.Summary.sp_count;
             S (fmt_ns st.Summary.sp_p50_ns);
             S (fmt_ns st.Summary.sp_p90_ns);
             S (fmt_ns st.Summary.sp_max_ns);
           ])
       stats)

let inspect_cmd =
  let file_arg =
    let doc = "JSONL trace produced by --trace-out, or - for stdin." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let phases_arg =
    let doc = "Number of equal update-index spans in the phase table." in
    Arg.(value & opt int 4 & info [ "phases" ] ~docv:"N" ~doc)
  in
  let fmt_estimate = function
    | Some e -> Printf.sprintf "%.1f" e
    | None -> "-"
  in
  let run file phases =
    if phases < 1 then `Error (false, "--phases must be >= 1")
    else
      match read_trace_events file with
      | Error e -> `Error (false, e)
      | Ok events when events = [] ->
        (* A trace file with no events (e.g. a run that recorded nothing,
           or a freshly truncated file) gets a clean one-line summary
           instead of a page of degenerate zero tables. *)
        Report.print_section (Printf.sprintf "trace summary: %s" file);
        print_endline "empty trace: no events";
        `Ok ()
      | Ok events ->
        let s = Summary.of_events events in
        Report.print_section (Printf.sprintf "trace summary: %s" file);
        Report.print_kv
          (s.Summary.run
          @ [
              ("events", string_of_int s.Summary.events);
              ("updates covered", string_of_int s.Summary.updates);
              ( "messages up / down",
                Printf.sprintf "%d / %d" s.Summary.msgs_up s.Summary.msgs_down
              );
              ( "bytes up / down",
                Printf.sprintf "%d / %d" s.Summary.bytes_up
                  s.Summary.bytes_down );
              ("broadcasts", string_of_int s.Summary.broadcasts);
              ("shared-medium bytes", string_of_int s.Summary.medium_bytes);
              ( "estimate first -> last",
                Printf.sprintf "%s -> %s"
                  (fmt_estimate s.Summary.first_estimate)
                  (fmt_estimate s.Summary.last_estimate) );
              ("final level", string_of_int s.Summary.level);
            ]
          @
          (* Fault section, only when the trace actually saw faults. *)
          if
            s.Summary.drops = 0 && s.Summary.duplicates = 0
            && s.Summary.retries = 0 && s.Summary.crashes = 0
          then []
          else
            [
              ( "dropped transmissions",
                Printf.sprintf "%d (%d bytes)" s.Summary.drops
                  s.Summary.dropped_bytes );
              ( "duplicate deliveries",
                Printf.sprintf "%d (%d bytes)" s.Summary.duplicates
                  s.Summary.duplicate_bytes );
              ("retransmissions", string_of_int s.Summary.retries);
              ( "crashes / recoveries",
                Printf.sprintf "%d / %d" s.Summary.crashes s.Summary.recovers
              );
              ( "degraded sites",
                match s.Summary.degraded_sites with
                | [] -> "none"
                | l -> String.concat "," (List.map string_of_int l) );
            ]);
        Report.print_table
          ~header:[ "event"; "count" ]
          (List.map
             (fun (k, n) -> Report.[ S k; I n ])
             s.Summary.kind_counts);
        print_newline ();
        (* Fault columns only when the trace contains fault events at
           all — a clean run's table should not be half zeros. *)
        let with_faults =
          List.exists
            (fun (r : Summary.site_row) ->
              r.s_drops > 0 || r.s_duplicates > 0 || r.s_retries > 0
              || r.s_crashes > 0 || r.s_recovers > 0)
            s.Summary.sites
          || s.Summary.drops > 0 || s.Summary.duplicates > 0
          || s.Summary.retries > 0 || s.Summary.crashes > 0
        in
        let fault_header = [ "drops"; "dups"; "retries"; "cr/rec" ] in
        let fault_cells (r : Summary.site_row) =
          Report.
            [
              I r.s_drops;
              I r.s_duplicates;
              I r.s_retries;
              S (Printf.sprintf "%d/%d" r.s_crashes r.s_recovers);
            ]
        in
        Report.print_table
          ~header:
            ([
               "site";
               "msgs up";
               "bytes up";
               "bytes down";
               "sketch";
               "items";
               "counts";
               "crossings";
               "resyncs";
             ]
            @ (if with_faults then fault_header else [])
            @ [ "mean gap" ])
          (List.map
             (fun (r : Summary.site_row) ->
               Report.
                 [
                   I r.site;
                   I r.s_msgs_up;
                   I r.s_bytes_up;
                   I r.s_bytes_down;
                   I r.s_sketch_sends;
                   I r.s_item_sends;
                   I r.s_count_sends;
                   I r.s_crossings;
                   I r.s_resyncs;
                 ]
               @ (if with_faults then fault_cells r else [])
               @ [
                   (if Float.is_nan r.s_mean_send_gap then Report.S "-"
                    else Report.F r.s_mean_send_gap);
                 ])
             s.Summary.sites);
        print_newline ();
        if s.Summary.span_stats <> [] then begin
          span_stats_table s.Summary.span_stats;
          print_newline ()
        end;
        if s.Summary.views <> [] then begin
          Report.print_table
            ~header:[ "view"; "spec"; "estimate"; "routed"; "bytes" ]
            (List.map
               (fun (v : Summary.view_row) ->
                 Report.
                   [
                     S v.v_label;
                     S v.v_spec;
                     F v.v_estimate;
                     I v.v_routed;
                     I v.v_bytes;
                   ])
               s.Summary.views);
          print_newline ()
        end;
        Report.print_table
          ~header:
            [
              "phase";
              "updates";
              "events";
              "bytes up";
              "bytes down";
              "sends";
              "crossings";
              "estimate";
            ]
          (List.map
             (fun (r : Summary.phase_row) ->
               Report.
                 [
                   I r.phase;
                   S (Printf.sprintf "%d-%d" r.p_from r.p_to);
                   I r.p_events;
                   I r.p_bytes_up;
                   I r.p_bytes_down;
                   I r.p_sends;
                   I r.p_crossings;
                   S (fmt_estimate r.p_estimate);
                 ])
             (Summary.phases ~n:phases events));
        `Ok ()
  in
  let doc =
    "Replay a JSONL trace into per-site and per-phase summary tables."
  in
  Cmd.v
    (Cmd.info "inspect" ~doc)
    Term.(ret (const run $ file_arg $ phases_arg))

(* ------------------------------------------------------------------ *)
(* top *)

(* Live per-site dashboard.  Two sources: a running coordinator's
   /metrics endpoint (hand-rolled HTTP GET + the exposition parser —
   refreshed every --interval seconds with per-site byte rates computed
   from successive scrapes), or a finished run's JSONL trace (one frame
   from the Summary fold, with headroom and degradation columns the
   metrics registry does not carry). *)

(* One GET against host:port.  The endpoint answers Connection: close,
   so the response is simply everything until EOF. *)
let http_get_metrics ~host ~port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  with
  | [] | (exception Not_found) ->
    Error (Printf.sprintf "cannot resolve %s:%d" host port)
  | ai :: _ -> (
    let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    match
      Fun.protect ~finally (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0;
          Unix.connect fd ai.Unix.ai_addr;
          let req =
            Printf.sprintf
              "GET /metrics HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n\r\n"
              host port
          in
          let b = Bytes.of_string req in
          let rec send pos =
            if pos < Bytes.length b then
              send (pos + Unix.write fd b pos (Bytes.length b - pos))
          in
          send 0;
          let buf = Buffer.create 8192 in
          let chunk = Bytes.create 8192 in
          let rec recv () =
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              recv ()
            end
          in
          recv ();
          Buffer.contents buf)
    with
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "scrape http://%s:%d/metrics: %s" host port
           (Unix.error_message e))
    | raw -> (
      (* Split the status line and headers off; require a 200. *)
      match String.index_opt raw ' ' with
      | None -> Error "malformed HTTP response"
      | Some sp ->
        let status =
          let rest = String.sub raw (sp + 1) (String.length raw - sp - 1) in
          match String.index_opt rest ' ' with
          | Some sp2 -> String.sub rest 0 sp2
          | None -> String.trim rest
        in
        if status <> "200" then Error ("HTTP status " ^ status)
        else
          let rec find_sep i =
            if i + 3 >= String.length raw then None
            else if
              raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
              && raw.[i + 3] = '\n'
            then Some (i + 4)
            else find_sep (i + 1)
          in
          (match find_sep 0 with
          | None -> Error "HTTP response without header terminator"
          | Some body ->
            Ok (String.sub raw body (String.length raw - body)))))

(* Scrape-sample lookups. *)

let sample_matches name labels (s : Metrics.sample) =
  s.Metrics.sample_name = name
  && List.for_all
       (fun (k, v) -> List.assoc_opt k s.Metrics.sample_labels = Some v)
       labels

let sample_value ?(labels = []) samples name =
  Option.map
    (fun s -> s.Metrics.sample_value)
    (List.find_opt (sample_matches name labels) samples)

let sample_int ?labels samples name =
  match sample_value ?labels samples name with
  | Some v -> int_of_float v
  | None -> 0

let label_values samples name label =
  List.sort_uniq compare
    (List.filter_map
       (fun (s : Metrics.sample) ->
         if s.Metrics.sample_name = name then
           List.assoc_opt label s.Metrics.sample_labels
         else None)
       samples)

(* Nearest-upper-bound quantile from cumulative _bucket samples: the
   smallest [le] whose cumulative count reaches [q] of the total. *)
let bucket_quantile samples name labels q =
  let parse_le le =
    match String.lowercase_ascii le with
    | "+inf" | "inf" -> Float.infinity
    | _ -> ( try float_of_string le with Failure _ -> Float.nan)
  in
  let buckets =
    List.filter_map
      (fun (s : Metrics.sample) ->
        if sample_matches (name ^ "_bucket") labels s then
          Option.map
            (fun le -> (parse_le le, s.Metrics.sample_value))
            (List.assoc_opt "le" s.Metrics.sample_labels)
        else None)
      samples
  in
  let buckets = List.sort (fun (a, _) (b, _) -> compare a b) buckets in
  match List.rev buckets with
  | [] -> Float.nan
  | (_, total) :: _ ->
    if total <= 0. then Float.nan
    else
      let target = q *. total in
      (match List.find_opt (fun (_, c) -> c >= target) buckets with
      | Some (ub, _) -> ub
      | None -> Float.nan)

let fmt_rate bytes_per_s =
  if Float.is_nan bytes_per_s then "-"
  else if bytes_per_s < 1024. then Printf.sprintf "%.0f B/s" bytes_per_s
  else if bytes_per_s < 1024. *. 1024. then
    Printf.sprintf "%.1f KiB/s" (bytes_per_s /. 1024.)
  else Printf.sprintf "%.1f MiB/s" (bytes_per_s /. (1024. *. 1024.))

(* Render one live frame.  [prev] is the previous (timestamp, samples)
   scrape, for rate columns. *)
let render_scrape_frame ~source ~prev ~now samples =
  let dt =
    match prev with
    | Some (t0, _) when now > t0 -> now -. t0
    | _ -> Float.nan
  in
  let prev_samples = match prev with Some (_, s) -> s | None -> [] in
  let rate ?labels name =
    if Float.is_nan dt then Float.nan
    else
      float_of_int (sample_int ?labels samples name - sample_int ?labels prev_samples name)
      /. dt
  in
  let fmt_opt = function
    | Some v -> Printf.sprintf "%.1f" v
    | None -> "-"
  in
  Report.print_section (Printf.sprintf "wdmon top: %s" source);
  let crashes = sample_int samples "wd_crashes_total" in
  let recovers = sample_int samples "wd_recovers_total" in
  Report.print_kv
    [
      ("estimate", fmt_opt (sample_value samples "wd_estimate"));
      ( "level",
        match sample_value samples "wd_level" with
        | Some v -> string_of_int (int_of_float v)
        | None -> "-" );
      ( "messages up / down",
        Printf.sprintf "%d / %d"
          (sample_int ~labels:[ ("dir", "up") ] samples "wd_messages_total")
          (sample_int ~labels:[ ("dir", "down") ] samples "wd_messages_total")
      );
      ( "bytes up / down",
        Printf.sprintf "%d / %d"
          (sample_int ~labels:[ ("dir", "up") ] samples "wd_bytes_total")
          (sample_int ~labels:[ ("dir", "down") ] samples "wd_bytes_total") );
      ( "rate up / down",
        Printf.sprintf "%s / %s"
          (fmt_rate (rate ~labels:[ ("dir", "up") ] "wd_bytes_total"))
          (fmt_rate (rate ~labels:[ ("dir", "down") ] "wd_bytes_total")) );
      ("broadcasts", string_of_int (sample_int samples "wd_broadcasts_total"));
      ( "crossings / resyncs",
        Printf.sprintf "%d / %d"
          (sample_int samples "wd_threshold_crossings_total")
          (sample_int samples "wd_resyncs_total") );
      ( "drops / dups / retries",
        Printf.sprintf "%d / %d / %d"
          (sample_int samples "wd_drops_total")
          (sample_int samples "wd_duplicates_total")
          (sample_int samples "wd_retries_total") );
      ( "crashes / recovers",
        Printf.sprintf "%d / %d%s" crashes recovers
          (if crashes > recovers then
             Printf.sprintf "  (%d site(s) DEGRADED)" (crashes - recovers)
           else "") );
    ];
  (match label_values samples "wd_site_bytes_total" "site" with
  | [] -> ()
  | sites ->
    let sites =
      List.sort compare
        (List.filter_map int_of_string_opt sites)
    in
    print_newline ();
    Report.print_table
      ~header:[ "site"; "bytes up"; "bytes down"; "up rate"; "down rate" ]
      (List.map
         (fun site ->
           let labels dir =
             [ ("dir", dir); ("site", string_of_int site) ]
           in
           Report.
             [
               I site;
               I (sample_int ~labels:(labels "up") samples "wd_site_bytes_total");
               I
                 (sample_int ~labels:(labels "down") samples
                    "wd_site_bytes_total");
               S (fmt_rate (rate ~labels:(labels "up") "wd_site_bytes_total"));
               S
                 (fmt_rate (rate ~labels:(labels "down") "wd_site_bytes_total"));
             ])
         sites));
  (* Histograms expose only their expanded series, so enumerate span
     names from the _count samples. *)
  (match label_values samples "wd_span_duration_ns_count" "span" with
  | [] -> ()
  | spans ->
    print_newline ();
    Report.print_table
      ~header:[ "span"; "count"; "p50 <="; "p90 <="; "p99 <=" ]
      (List.map
         (fun span ->
           let labels = [ ("span", span) ] in
           let q p = bucket_quantile samples "wd_span_duration_ns" labels p in
           Report.
             [
               S span;
               I
                 (sample_int ~labels samples "wd_span_duration_ns_count");
               S (fmt_ns (q 0.5));
               S (fmt_ns (q 0.9));
               S (fmt_ns (q 0.99));
             ])
         spans));
  print_newline ()

(* Render one frame from a finished run's trace: the Summary fold plus
   the per-site headroom (last threshold crossing's estimate vs the
   threshold it had to beat) and degradation status. *)
let render_trace_frame file events =
  let s = Summary.of_events events in
  let last_cross = Hashtbl.create 16 in
  List.iter
    (fun (ev : Wd_obs.Event.t) ->
      match ev.Wd_obs.Event.kind with
      | Wd_obs.Event.Threshold_crossed { site; estimate; threshold } ->
        Hashtbl.replace last_cross site (estimate, threshold)
      | _ -> ())
    events;
  let fmt_estimate = function
    | Some e -> Printf.sprintf "%.1f" e
    | None -> "-"
  in
  Report.print_section (Printf.sprintf "wdmon top: %s" file);
  Report.print_kv
    (s.Summary.run
    @ [
        ("updates covered", string_of_int s.Summary.updates);
        ( "estimate first -> last",
          Printf.sprintf "%s -> %s"
            (fmt_estimate s.Summary.first_estimate)
            (fmt_estimate s.Summary.last_estimate) );
        ("final level", string_of_int s.Summary.level);
        ( "messages up / down",
          Printf.sprintf "%d / %d" s.Summary.msgs_up s.Summary.msgs_down );
        ( "bytes up / down",
          Printf.sprintf "%d / %d" s.Summary.bytes_up s.Summary.bytes_down );
        ( "drops / dups / retries",
          Printf.sprintf "%d / %d / %d" s.Summary.drops s.Summary.duplicates
            s.Summary.retries );
        ( "crashes / recovers",
          Printf.sprintf "%d / %d" s.Summary.crashes s.Summary.recovers );
        ( "degraded sites",
          match s.Summary.degraded_sites with
          | [] -> "none"
          | l -> String.concat "," (List.map string_of_int l) );
      ]);
  print_newline ();
  Report.print_table
    ~header:
      [
        "site";
        "msgs up";
        "bytes up";
        "bytes down";
        "sends";
        "retries";
        "drops";
        "dups";
        "cr/rec";
        "gap";
        "est/thr";
        "status";
      ]
    (List.map
       (fun (r : Summary.site_row) ->
         let headroom =
           match Hashtbl.find_opt last_cross r.Summary.site with
           | Some (est, thr) when thr > 0. ->
             Printf.sprintf "%.2fx" (est /. thr)
           | _ -> "-"
         in
         Report.
           [
             I r.site;
             I r.s_msgs_up;
             I r.s_bytes_up;
             I r.s_bytes_down;
             I (r.s_sketch_sends + r.s_item_sends + r.s_count_sends);
             I r.s_retries;
             I r.s_drops;
             I r.s_duplicates;
             S (Printf.sprintf "%d/%d" r.s_crashes r.s_recovers);
             (if Float.is_nan r.s_mean_send_gap then S "-"
              else F r.s_mean_send_gap);
             S headroom;
             S
               (if List.mem r.site s.Summary.degraded_sites then "DEGRADED"
                else "ok");
           ])
       s.Summary.sites);
  if s.Summary.span_stats <> [] then begin
    print_newline ();
    span_stats_table s.Summary.span_stats
  end;
  if s.Summary.views <> [] then begin
    print_newline ();
    Report.print_table
      ~header:[ "view"; "spec"; "estimate"; "routed"; "bytes" ]
      (List.map
         (fun (v : Summary.view_row) ->
           Report.
             [ S v.v_label; S v.v_spec; F v.v_estimate; I v.v_routed; I v.v_bytes ])
         s.Summary.views)
  end;
  print_newline ()

let top_cmd =
  let scrape_arg =
    let doc =
      "Scrape a live coordinator's /metrics endpoint.  HOST:PORT, or just \
       PORT for 127.0.0.1 (see coord --metrics-port)."
    in
    Arg.(
      value & opt (some string) None & info [ "scrape" ] ~docv:"HOST:PORT" ~doc)
  in
  let trace_arg =
    let doc =
      "Render one dashboard frame from a JSONL trace file (- for stdin)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"TRACE" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between scrapes in live mode." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SEC" ~doc)
  in
  let once_flag =
    let doc = "Render a single frame and exit (no screen clearing)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let frames_arg =
    let doc = "Stop after N frames (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)
  in
  let parse_endpoint addr =
    match int_of_string_opt addr with
    | Some port -> Ok ("127.0.0.1", port)
    | None -> (
      match String.rindex_opt addr ':' with
      | None -> Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" addr)
      | Some i -> (
        let host = String.sub addr 0 i in
        let port = String.sub addr (i + 1) (String.length addr - i - 1) in
        match int_of_string_opt port with
        | Some p when host <> "" -> Ok (host, p)
        | _ ->
          Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" addr)))
  in
  let run_live ~host ~port ~interval ~once ~frames =
    let source = Printf.sprintf "http://%s:%d/metrics" host port in
    let prev = ref None in
    let frame = ref 0 in
    let errors = ref 0 in
    let result = ref (`Ok ()) in
    let continue = ref true in
    while !continue do
      (match http_get_metrics ~host ~port with
      | Error e ->
        (* In loop modes a failed scrape is retried — the dashboard may
           be attached before the coordinator opens its port, or outlive
           the run — but bounded, so a dead endpoint cannot hang CI. *)
        incr errors;
        if once || !errors >= 50 then begin
          result := `Error (false, e);
          continue := false
        end
        else Printf.printf "%s (retrying)\n%!" e
      | Ok body -> (
        match Metrics.parse_prometheus body with
        | Error e ->
          result := `Error (false, "bad exposition: " ^ e);
          continue := false
        | Ok samples ->
          errors := 0;
          let now = Unix.gettimeofday () in
          if not once then print_string "\027[2J\027[H";
          render_scrape_frame ~source ~prev:!prev ~now samples;
          prev := Some (now, samples);
          incr frame));
      if !continue then begin
        if once || (frames > 0 && !frame >= frames) then continue := false
        else Unix.sleepf interval
      end
    done;
    !result
  in
  let run scrape trace interval once frames =
    if interval <= 0. then `Error (false, "--interval must be > 0")
    else
      match (scrape, trace) with
      | None, None -> `Error (true, "one of --scrape or --trace is required")
      | Some _, Some _ ->
        `Error (true, "--scrape and --trace are mutually exclusive")
      | None, Some file -> (
        match read_trace_events file with
        | Error e -> `Error (false, e)
        | Ok events ->
          render_trace_frame file events;
          `Ok ())
      | Some addr, None -> (
        match parse_endpoint addr with
        | Error e -> `Error (false, e)
        | Ok (host, port) -> run_live ~host ~port ~interval ~once ~frames)
  in
  let doc =
    "Live per-site dashboard: refreshing /metrics scrape of a running \
     coordinator, or a one-shot view of a finished run's trace."
  in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(
      ret
        (const run $ scrape_arg $ trace_arg $ interval_arg $ once_flag
       $ frames_arg))

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd =
  let run () =
    print_endline "experiments:";
    List.iter (fun id -> Printf.printf "  %s\n" id) Experiments.ids;
    print_endline
      "workloads: http-pairs http-clients http-objects two-phase zipf gossip"
  in
  let doc = "List available experiments and workloads." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc =
    "Distributed, continuous monitoring of duplicate-resilient aggregates \
     (reproduction of Cormode, Muthukrishnan & Zhuang, ICDE 2006)."
  in
  let info = Cmd.info "wdmon" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd;
            dc_cmd;
            ds_cmd;
            hh_cmd;
            run_cmd;
            coord_cmd;
            relay_cmd;
            eval_cmd;
            workload_cmd;
            inspect_cmd;
            top_cmd;
            list_cmd;
          ]))
