(* wdbench: the end-to-end benchmark of the coordinator's ingest path,
   with a traced pass that times each layer from outside.

     wdbench [--seed N] [--seconds S] [--trace 0|1] [--json OUT.json]
             [--trace-out OUT.jsonl]
       every workload, each in a forked child process
     wdbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] ...
       one workload in this process; the last line of output is
       {"correct", "attempted", "failed", "metrics"} with the end-to-end
       metrics (--trace 0) or the per-layer ones (--trace 1)
     wdbench --smoke [--wdmon PATH]
       every workload at ~1% size with every check, then the output read
       back and the trace handed to [wdmon inspect] and [wdmon top]
     wdbench compare A.json B.json [--bounds BENCHMARK.json]

   README.md describes the workloads, the metrics and their bounds. *)

module Json = Wd_obs.Json
module Query = Wd_view.Query

let schema = "wd-bench/2"

type outcome = {
  workload : Workload.t;
  input : Workload.input;
  input_s : float;  (** generating the input and its ground truth *)
  reps : int;  (** timed repetitions of the untraced pass *)
  wall_s : float;
  pass : Measure.pass;  (** every repetition of the run, checks included *)
  end_to_end : Measure.metric list;
  per_layer : Measure.metric list;  (** empty without the traced pass *)
}

let correct o = o.pass.Measure.failed = 0 && o.pass.Measure.attempted > 0

(* The untraced pass runs for [untraced] seconds; with a [tracer], the
   traced pass follows for half of [cfg.seconds]. *)
let run_workload (cfg : Measure.config) ~untraced ~tracer (w : Workload.t) =
  let t0 = Drive.now () in
  let events =
    max 1 (int_of_float (Float.round (Float.of_int w.events *. cfg.size)))
  in
  let input = Workload.prepare (w.generate ~seed:cfg.seed ~events) in
  let input_s = Drive.now () -. t0 in
  let query = Workload.query w in
  let reference = ref None in
  let check = Measure.check ~theta:query.Query.theta ~reference in
  (* The run every repetition must equal: the sim twin of a TCP
     workload, else the first repetition itself. *)
  let ref_pass =
    if w.carrier = Workload.Tcp then
      Measure.add_outcome Measure.empty
        (Measure.attempt (fun () ->
             check (Drive.run ~carrier:Workload.Sim ~query input)))
    else Measure.empty
  in
  (* The first repetition also measures the registry's live state. *)
  let state_words = ref 0 in
  let untraced_pass =
    Measure.repeat ~warmups:Measure.warmups ~seconds:untraced
      ~min_reps:cfg.min_reps ~max_reps:cfg.max_reps (fun k ->
        let r = Drive.run ~state:(k = 0) ~carrier:w.carrier ~query input in
        if k = 0 then state_words := r.Drive.state_words;
        check r)
  in
  let end_to_end =
    Measure.end_to_end ~n:input.n ~state_words:!state_words untraced_pass
  in
  let layers =
    Option.map
      (fun tracer ->
        let untraced_mups =
          (List.find (fun m -> m.Measure.name = "ingest_mups") end_to_end)
            .value
        in
        Layers.run cfg w ~query ~input ~check ~untraced_mups ~tracer)
      tracer
  in
  {
    workload = w;
    input;
    input_s;
    reps = List.length untraced_pass.reps;
    wall_s = Drive.now () -. t0;
    pass =
      List.fold_left Measure.merge ref_pass
        (untraced_pass
        :: Option.fold ~none:[] ~some:(fun l -> [ l.Layers.pass ]) layers);
    end_to_end;
    per_layer = Option.fold ~none:[] ~some:(fun l -> l.Layers.metrics) layers;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let num x = if Float.is_finite x then Json.Float x else Json.Null

let json_of_metric (m : Measure.metric) =
  let q p = Wd_eval.Stats.quantile m.samples p in
  ( m.name,
    Json.Obj
      [
        ("value", num m.value);
        ("unit", Json.Str m.unit_);
        ("q1", num (q 0.25));
        ("q3", num (q 0.75));
        ("n", Json.Int (Array.length m.samples));
        ("samples", Json.List (Array.to_list (Array.map num m.samples)));
      ] )

let json_of_outcome o =
  let w = o.workload and p = o.pass in
  Json.Obj
    [
      ("name", Json.Str w.name);
      ("carrier", Json.Str (Workload.carrier_name w.carrier));
      ("query", Json.Str w.query);
      ( "input",
        Json.Obj
          [
            ("description", Json.Str w.input);
            ("updates", Json.Int o.input.n);
            ("sites", Json.Int o.input.sites);
            ("distinct", Json.Int o.input.distinct);
            ( "duplication",
              num (Float.of_int o.input.n /. Float.of_int o.input.distinct) );
            ("seconds", num o.input_s);
          ] );
      ("warmups", Json.Int Measure.warmups);
      ("reps", Json.Int o.reps);
      ("wall_s", num o.wall_s);
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Int p.attempted);
      ("failed", Json.Int p.failed);
      ( "fail_frac",
        num (Float.of_int p.failed /. Float.of_int (max 1 p.attempted)) );
      ("errors", Json.List (List.map (fun e -> Json.Str e) p.errors));
      ("end_to_end", Json.Obj (List.map json_of_metric o.end_to_end));
      ("per_layer", Json.Obj (List.map json_of_metric o.per_layer));
    ]

(* The commit of a git checkout, read from its files: the benchmark may
   run where there is no repository at all. *)
let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed ref_ =
    Option.bind (read ".git/packed-refs") (fun refs ->
        String.split_on_char '\n' refs
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ c; r ] when r = ref_ -> Some c
               | _ -> None))
  in
  match Option.map (String.split_on_char ' ') (read ".git/HEAD") with
  | None -> "unknown"
  | Some [ "ref:"; ref_ ] -> (
    match read (Filename.concat ".git" ref_) with
    | Some c -> c
    | None -> Option.value (packed ref_) ~default:"unknown")
  | Some head -> String.concat " " head

let document (cfg : Measure.config) ~smoke workloads =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "provenance",
        Json.Obj
          [
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("commit", Json.Str (git_commit ()));
            ("seed", Json.Int cfg.seed);
            ("seconds", num cfg.seconds);
            ("smoke", Json.Bool smoke);
            ("chunk", Json.Int Workload.chunk);
            ("registry_seed", Json.Int Workload.registry_seed);
            ("relays", Json.Int Drive.max_relays);
          ] );
      ("workloads", Json.List workloads);
    ]

let write_outputs cfg ~smoke ~json ~trace_out docs events =
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string_pretty (document cfg ~smoke docs))))
    json;
  Option.iter
    (fun path ->
      let sink = Wd_obs.Sink.jsonl path in
      List.iter (Wd_obs.Sink.emit sink) events;
      Wd_obs.Sink.close sink)
    trace_out

let print_metrics title (ms : Measure.metric list) =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (m : Measure.metric) ->
      let q p = Wd_eval.Stats.quantile m.samples p in
      if Array.length m.samples > 1 then
        Printf.printf "    %-32s %14.6g %-8s [q1 %.6g, q3 %.6g, n=%d]\n" m.name
          m.value m.unit_ (q 0.25) (q 0.75) (Array.length m.samples)
      else Printf.printf "    %-32s %14.6g %s\n" m.name m.value m.unit_)
    ms

let print_outcome ~tables o =
  let w = o.workload in
  Printf.printf
    "%s (%s, %s): %d updates, %d distinct, input %.1fs, %d warm-up + %d \
     timed reps, %.1fs, %s\n"
    w.name
    (Workload.carrier_name w.carrier)
    w.query o.input.n o.input.distinct o.input_s Measure.warmups o.reps
    o.wall_s
    (if correct o then "correct"
     else Printf.sprintf "FAILED %d/%d" o.pass.failed o.pass.attempted);
  List.iter (Printf.printf "    error: %s\n") o.pass.errors;
  if tables then begin
    print_metrics "end to end" o.end_to_end;
    if o.per_layer <> [] then
      print_metrics "per layer (traced pass)" o.per_layer
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Modes *)

let measure ?(tables = true) (cfg : Measure.config) ~traced ~untraced w =
  let tracer = if traced then Some (Drive.tracer ~seed:cfg.seed) else None in
  let o = run_workload cfg ~untraced ~tracer w in
  print_outcome ~tables o;
  (o, Option.fold ~none:[] ~some:Drive.events tracer)

(* One workload, ending in a result line for programs to read.  With
   --trace 1 the untraced pass only supplies the traced pass's overhead
   reference, so the two passes share the run length. *)
let one_workload (cfg : Measure.config) ~traced ~json ~trace_out w =
  let untraced = if traced then cfg.seconds /. 2.0 else cfg.seconds in
  let o, events = measure cfg ~traced ~untraced w in
  write_outputs cfg ~smoke:false ~json ~trace_out [ json_of_outcome o ]
    events;
  let metrics = if traced then o.per_layer else o.end_to_end in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct o));
            ("attempted", Json.Int o.pass.attempted);
            ("failed", Json.Int o.pass.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : Measure.metric) ->
                     ( m.name,
                       Json.Obj
                         [ ("value", num m.value); ("unit", Json.Str m.unit_) ]
                     ))
                   metrics) );
          ]));
  if correct o then 0 else 1

(* What a workload's child process hands back to the parent. *)
type child = { doc : Json.t; ok : bool; spans : Wd_obs.Event.t list }

(* Run [f] in a forked child and read its result back over a pipe.  The
   workloads run one after another, so that heaps and relay processes
   never overlap and each workload's memory is its own. *)
let in_child (f : unit -> child) =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      match f () with
      | r ->
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc r [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("wdbench: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      try Some (Marshal.from_channel ic : child) with End_of_file -> None
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    r

(* Every workload; returns whether all of them were correct. *)
let all_workloads cfg ~smoke ~traced ~json ~trace_out =
  let children =
    List.map
      (fun w ->
        in_child (fun () ->
            let o, spans =
              measure ~tables:(not smoke) cfg ~traced ~untraced:cfg.seconds w
            in
            { doc = json_of_outcome o; ok = correct o; spans }))
      Workload.all
  in
  let done_ = List.filter_map Fun.id children in
  write_outputs cfg ~smoke ~json ~trace_out
    (List.map (fun c -> c.doc) done_)
    (List.concat_map (fun c -> c.spans) done_);
  let ok = List.for_all (function Some c -> c.ok | None -> false) children in
  Printf.printf "wdbench: %d of %d workloads correct\n"
    (List.length (List.filter (fun c -> c.ok) done_))
    (List.length Workload.all);
  ok

(* ------------------------------------------------------------------ *)
(* Smoke: the whole benchmark at ~1% size, then its output read back
   the way a consumer would. *)

let smoke_checks ~json ~trace ~wdmon =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match Compare.read_json json with
  | Error e -> fail "%s" e
  | Ok doc ->
    if Compare.str_field "schema" doc <> Some schema then
      fail "schema is not %s" schema;
    let ws = Compare.list_of (Json.member "workloads" doc) in
    if List.length ws <> List.length Workload.all then fail "workloads missing";
    List.iter
      (fun w ->
        let name = Option.value (Compare.str_field "name" w) ~default:"?" in
        if Option.bind (Json.member "correct" w) Json.to_bool <> Some true then
          fail "%s: not correct" name;
        List.iter
          (fun section ->
            match Json.member section w with
            | Some (Json.Obj (_ :: _ as ms)) ->
              List.iter
                (fun (m, v) ->
                  (* At smoke size a chunk kind may not occur at all. *)
                  let may_be_null =
                    m = "tracker.quiet_chunk_us" || m = "tracker.talk_chunk_us"
                  in
                  if Compare.num_field "value" v = None && not may_be_null then
                    fail "%s: %s has no value" name m)
                ms
            | _ -> fail "%s: no %s metrics" name section)
          [ "end_to_end"; "per_layer" ])
      ws);
  Option.iter
    (fun wdmon ->
      List.iter
        (fun args ->
          let cmd = Filename.quote_command wdmon args ~stdout:Filename.null in
          if Sys.command cmd <> 0 then fail "%s exited non-zero" cmd)
        [ [ "inspect"; trace ]; [ "top"; "--trace"; trace; "--once" ] ])
    wdmon;
  List.iter (Printf.printf "smoke: FAIL %s\n") (List.rev !failures);
  !failures = []

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "wdbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json \
   FILE] [--trace-out FILE] [--smoke [--wdmon PATH]]\n\
   wdbench compare A.json B.json [--bounds BENCHMARK.json]"

let main_compare args =
  let bounds = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse_argv ~current:(ref 0)
    (Array.of_list ("wdbench compare" :: args))
    [ ("--bounds", Arg.Set_string bounds, "FILE bounds (BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    usage;
  match !files with
  | [ a; b ] -> (
    match Compare.run ~bounds_path:!bounds a b with
    | Ok 0 -> 0
    | Ok _ -> 1
    | Error e ->
      prerr_endline ("wdbench compare: " ^ e);
      2)
  | _ -> raise (Arg.Bad usage)

let main () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 1 and json = ref "" and trace_out = ref "" in
  let smoke = ref false and wdmon = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S timed seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 run the traced pass (default 1)");
      ("--json", Arg.Set_string json, "FILE write the wd-bench/2 document");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the spans (JSONL)");
      ("--smoke", Arg.Set smoke, " every workload at ~1% size, read back");
      ("--wdmon", Arg.Set_string wdmon, "PATH wdmon binary for --smoke");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let opt s = if s = "" then None else Some s in
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  let traced = !trace = 1 in
  if !smoke then begin
    let cfg =
      {
        Measure.seed = !seed;
        seconds = 0.0;
        min_reps = 2;
        max_reps = 2;
        size = 0.01;
      }
    in
    let json = Option.value (opt !json) ~default:"wdbench-smoke.json" in
    let trace = Option.value (opt !trace_out) ~default:"wdbench-smoke.jsonl" in
    let ok =
      all_workloads cfg ~smoke:true ~traced:true ~json:(Some json)
        ~trace_out:(Some trace)
    in
    if smoke_checks ~json ~trace ~wdmon:(opt !wdmon) && ok then begin
      print_endline "smoke: ok";
      0
    end
    else 1
  end
  else
    let cfg =
      {
        Measure.seed = !seed;
        seconds = !seconds;
        min_reps = 3;
        max_reps = max_int;
        size = 1.0;
      }
    in
    let json = opt !json and trace_out = opt !trace_out in
    match opt !workload with
    | None ->
      if all_workloads cfg ~smoke:false ~traced ~json ~trace_out then 0 else 1
    | Some name -> (
      match Workload.find name with
      | Some w -> one_workload cfg ~traced ~json ~trace_out w
      | None -> raise (Arg.Bad ("unknown workload " ^ name)))

let () =
  Wd_net.Frame_io.ignore_sigpipe ();
  let code =
    try
      match Array.to_list Sys.argv with
      | _ :: "compare" :: args -> main_compare args
      | [ _; "relay"; port; first_site; count ] -> (
        (* A relay process of a TCP workload; see [Drive.spawn_relays]. *)
        match List.map int_of_string_opt [ port; first_site; count ] with
        | [ Some port; Some first_site; Some count ] ->
          Drive.relay_main ~port ~first_site ~count;
          0
        | _ -> raise (Arg.Bad usage))
      | _ -> main ()
    with Arg.Bad msg | Arg.Help msg ->
      prerr_endline msg;
      2
  in
  exit code
