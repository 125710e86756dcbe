(* The traced pass: per-layer numbers, each timed from outside by calling
   that layer's public functions.

   - traced repetitions of the workload record a span per layer boundary
     (connect, create, every chunk, close) under one [bench.rep] root;
   - one more [bench.rep] holds the layer work: the run on the other
     carrier ([twin.sim] or [twin.tcp]), checked bit-equal to the
     reference run, the replays of the hash, the query's sketch module
     and the frame codec, and one [Simulation.run] over the same input.

   Every workload runs both carriers here, so the wire layer is measured
   on all of them: a sim workload is carried once over TCP, a TCP
   workload once on the simulator. *)

module Query = Wd_view.Query
module Rng = Wd_hashing.Rng
module Sketch_intf = Wd_sketch.Sketch_intf
module Frame = Wd_net.Wire.Frame
module Stats = Wd_eval.Stats

let metric = Measure.metric
let median = Measure.median
let now = Drive.now

(* Replays stop after this many updates (or frames), which bounds their
   time on the largest inputs. *)
let replay_cap = 1 lsl 20

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Hash layer *)

let replay_hash items =
  let module Mt = Wd_hashing.Mixed_tabulation in
  let h = Mt.create (Rng.create Workload.registry_seed) in
  let m = min replay_cap (Array.length items) in
  let acc, dt =
    time (fun () ->
        let acc = ref 0 in
        for j = 0 to m - 1 do
          acc := !acc lxor Int64.to_int (Mt.hash h (Array.unsafe_get items j))
        done;
        !acc)
  in
  ignore (Sys.opaque_identity acc : int);
  dt *. 1e9 /. Float.of_int m

(* ------------------------------------------------------------------ *)
(* Sketch layer: the query's sketch module, one summary per site. *)

module type SKETCH = sig
  type t

  val create : unit -> t
  val add : t -> int -> bool
  val add_batch : t -> int array -> unit
  val merge_into : dst:t -> t -> unit
  val estimate : t -> float
  val size_bytes : t -> int
end

module type ESTIMATED_SKETCH = sig
  include Sketch_intf.DISTINCT_SKETCH

  val with_estimator : Sketch_intf.estimator -> family -> family
end

(* The family the registry builds for the query: drawn from the
   registry seed with the query's accuracy, confidence and estimator. *)
let distinct (module S : ESTIMATED_SKETCH) (q : Query.t) =
  let fam =
    S.family
      ~rng:(Rng.create Workload.registry_seed)
      ~accuracy:q.Query.alpha ~confidence:q.Query.confidence
  in
  let fam =
    if q.Query.estimator = Sketch_intf.Mle then
      S.with_estimator Sketch_intf.Mle fam
    else fam
  in
  (module struct
    type t = S.t

    let create () = S.create fam
    let add = S.add
    let add_batch = S.add_batch
    let merge_into = S.merge_into
    let estimate = S.estimate
    let size_bytes = S.size_bytes
  end : SKETCH)

(* The DS query's sampler; an [add] "changes" it when the item enters
   the sample. *)
let sampler (q : Query.t) =
  let module S = Wd_sketch.Distinct_sampler in
  let fam =
    S.family
      ~rng:(Rng.create Workload.registry_seed)
      ~threshold:q.Query.threshold
  in
  (module struct
    type t = S.t

    let create () = S.create fam

    let add t v =
      let before = S.mem t v in
      S.add t v;
      (not before) && S.mem t v

    let add_batch = S.add_batch
    let merge_into = S.merge_into
    let estimate = S.estimate_distinct
    let size_bytes = S.size_bytes
  end : SKETCH)

let sketch_of (q : Query.t) =
  match (q.Query.protocol, q.Query.sketch) with
  | Query.Ds _, _ -> sampler q
  | Query.Dc _, Query.Fmc -> distinct (module Wd_sketch.Fm_concentrated) q
  | _ -> invalid_arg "wdbench: no sketch replay for this query"

let per_site (input : Workload.input) m =
  let sites = input.stream.Wd_workload.Stream.sites
  and items = input.stream.Wd_workload.Stream.items in
  let len = Array.make input.sites 0 in
  for j = 0 to m - 1 do
    len.(sites.(j)) <- len.(sites.(j)) + 1
  done;
  let out = Array.map (fun l -> Array.make l 0) len in
  Array.fill len 0 input.sites 0;
  for j = 0 to m - 1 do
    let s = sites.(j) in
    out.(s).(len.(s)) <- items.(j);
    len.(s) <- len.(s) + 1
  done;
  out

type sketch_replay = {
  add_batch_ns : float;
  changed_frac : float;
  merge_us : float;
  estimate_us : float;
  size_bytes : int;
  minor_words : float;
}

let replay_sketch (module S : SKETCH) (input : Workload.input) =
  let m = min replay_cap input.n in
  let by_site = per_site input m in
  let k = Array.length by_site in
  let sketches = Array.init k (fun _ -> S.create ()) in
  let w0 = Gc.minor_words () in
  let (), dt_batch =
    time (fun () ->
        Array.iteri (fun s xs -> S.add_batch sketches.(s) xs) by_site)
  in
  let minor_words = (Gc.minor_words () -. w0) /. Float.of_int m in
  let fresh = Array.init k (fun _ -> S.create ()) in
  let changed = ref 0 in
  Array.iteri
    (fun s xs ->
      Array.iter (fun v -> if S.add fresh.(s) v then incr changed) xs)
    by_site;
  let dst = S.create () in
  let (), dt_merge =
    time (fun () -> Array.iter (fun sk -> S.merge_into ~dst sk) sketches)
  in
  let reads = 1000 in
  let sum, dt_est =
    time (fun () ->
        let sum = ref 0.0 in
        for _ = 1 to reads do
          sum := !sum +. S.estimate dst
        done;
        !sum)
  in
  ignore (Sys.opaque_identity sum : float);
  {
    add_batch_ns = dt_batch *. 1e9 /. Float.of_int m;
    changed_frac = Float.of_int !changed /. Float.of_int m;
    merge_us = dt_merge *. 1e6 /. Float.of_int k;
    estimate_us = dt_est *. 1e6 /. Float.of_int reads;
    size_bytes = S.size_bytes dst;
    minor_words;
  }

(* ------------------------------------------------------------------ *)
(* Frame codec, replayed at a run's frame count and mean frame size:
   every frame's header encoded and decoded, and the down frames packed
   [per_envelope] to a batch envelope that [decode_batch] parses. *)

let replay_codec (w : Drive.wire) =
  let ws = w.Drive.stats in
  let frames = ws.frames_up + ws.frames_down + ws.control_frames in
  let bytes = ws.wire_bytes_up + ws.wire_bytes_down + ws.control_bytes in
  let payload = max 0 ((bytes / max 1 frames) - Frame.header_bytes) in
  let per_envelope =
    if ws.batch_envelopes = 0 then 1
    else max 1 (ws.batch_inner_frames / ws.batch_envelopes)
  in
  let inner = Frame.header_bytes + payload in
  let region = Bytes.make (per_envelope * inner) '\000' in
  let envelope = Bytes.create Frame.header_bytes in
  let rounds = max 1 (min frames replay_cap / per_envelope) in
  let ok = ref true in
  let check r = if Result.is_error r then ok := false in
  let (), dt =
    time (fun () ->
        for _ = 1 to rounds do
          for i = 0 to per_envelope - 1 do
            Frame.encode_header region ~pos:(i * inner) ~kind:Frame.Deliver
              ~site:i ~length:payload;
            check (Frame.decode_header region ~pos:(i * inner))
          done;
          Frame.encode_batch_header envelope ~pos:0 ~count:per_envelope
            ~length:(Bytes.length region);
          check (Frame.decode_header envelope ~pos:0);
          check (Frame.decode_batch region ~count:per_envelope)
        done)
  in
  if !ok then Ok (dt *. 1e9 /. Float.of_int (rounds * per_envelope))
  else Error "the frame codec replay did not decode what it encoded"

(* ------------------------------------------------------------------ *)
(* The traced pass *)

(* Least squares of chunk time on the chunk's length and the messages it
   charged, through the origin: [t = a * len + b * msgs].  [a] is what an
   update costs the tracker when nothing is sent, [b] what one message
   adds on top.  (The medians of quiet and talking chunks give the time
   per chunk; a talking chunk's time also depends on how many messages
   it charged, which the fit separates out.) *)
let chunk_fit (reps : Drive.rep list) ~n =
  let sll = ref 0.0 and slm = ref 0.0 and smm = ref 0.0 in
  let slt = ref 0.0 and smt = ref 0.0 in
  List.iter
    (fun (r : Drive.rep) ->
      Array.iteri
        (fun c t ->
          let len = Float.of_int (min Workload.chunk (n - (c * Workload.chunk)))
          and m = Float.of_int r.Drive.msgs.(c) in
          sll := !sll +. (len *. len);
          slm := !slm +. (len *. m);
          smm := !smm +. (m *. m);
          slt := !slt +. (len *. t);
          smt := !smt +. (m *. t))
        r.Drive.chunk_us)
    reps;
  let det = (!sll *. !smm) -. (!slm *. !slm) in
  if det <= 0.0 then (Float.nan, Float.nan)
  else
    ( ((!slt *. !smm) -. (!slm *. !smt)) /. det,
      ((!sll *. !smt) -. (!slm *. !slt)) /. det )

let median_of f reps = median (Array.of_list (List.map f reps))

(* DC: median relative error over the second half of the chunk
   checkpoints; DS: Lemma 2's max count error over the final sample. *)
let rel_err (input : Workload.input) (r : Drive.rep) =
  match r.Drive.max_count_error with
  | Some e -> e
  | None ->
    let c = Array.length r.Drive.estimates in
    let half = c / 2 in
    median
      (Array.init (c - half) (fun i ->
           let truth = Float.of_int input.truth_at.(half + i) in
           Float.abs (r.Drive.estimates.(half + i) -. truth) /. truth))

type result = { pass : Measure.pass; metrics : Measure.metric list }

let run (cfg : Measure.config) (w : Workload.t) ~query
    ~(input : Workload.input) ~check ~untraced_mups ~tracer =
  let n = input.n in
  let nf = Float.of_int n in
  let once ?root_name ?parent ~carrier () =
    Measure.attempt (fun () ->
        check (Drive.run ~tracer ?root_name ?parent ~carrier ~query input))
  in
  let traced =
    Measure.repeat ~warmups:0 ~seconds:(cfg.seconds /. 2.0)
      ~min_reps:(min 2 cfg.max_reps) ~max_reps:cfg.max_reps (fun _ ->
        once ~carrier:w.carrier ())
  in
  (* The layer repetition. *)
  let root = Drive.fresh_id (Some tracer) in
  let t_layer = now () in
  let replay name f =
    let t0 = now () in
    let r = f () in
    Drive.span (Some tracer) ~parent:root ~name ~time:0 t0 (now ());
    r
  in
  let other : Workload.carrier = match w.carrier with Sim -> Tcp | Tcp -> Sim in
  let twin =
    once ~parent:root
      ~root_name:("twin." ^ Workload.carrier_name other)
      ~carrier:other ()
  in
  let hash_ns =
    replay "replay.hash" (fun () -> replay_hash input.stream.items)
  in
  let sk =
    replay "replay.sketch" (fun () -> replay_sketch (sketch_of query) input)
  in
  let (_ : Whats_different.Simulation.run), simulation_s =
    replay "simulation.run" (fun () ->
        time (fun () ->
            Whats_different.Simulation.run ~seed:Workload.registry_seed query
              input.stream))
  in
  let own = traced.reps and twin_reps = Result.to_list twin in
  let sims, tcps =
    match w.carrier with Sim -> (own, twin_reps) | Tcp -> (twin_reps, own)
  in
  let wire = match tcps with r :: _ -> r.Drive.wire | [] -> None in
  let codec =
    replay "replay.codec" (fun () ->
        Option.fold ~none:(Ok Float.nan) ~some:replay_codec wire)
  in
  Drive.span (Some tracer) ~span_id:root ~name:"bench.rep" ~time:n t_layer
    (now ());
  let pass = Measure.add_outcome traced twin in
  let pass =
    match codec with
    | Ok _ -> pass
    | Error e -> Measure.add_outcome pass (Error e)
  in
  (* Times from the two carriers. *)
  let feed = median_of (fun r -> r.Drive.feed_s) in
  let sim_feed = feed sims and tcp_feed = feed tcps and own_feed = feed own in
  let ws = Option.map (fun w -> w.Drive.stats) wire in
  let wint f = match ws with Some s -> Float.of_int (f s) | None -> Float.nan in
  let first f = match own with r :: _ -> f r | [] -> Float.nan in
  let counter f = first (fun r -> Float.of_int (f r.Drive.counters)) in
  let messages =
    counter (fun c -> c.Drive.messages_up + c.Drive.messages_down)
  in
  let local_us, send_us = chunk_fit sims ~n in
  let chunk_msgs = Array.concat (List.map (fun r -> r.Drive.msgs) own) in
  let chunk_us = Array.concat (List.map (fun r -> r.Drive.chunk_us) own) in
  let talking = Array.fold_left (fun k m -> if m > 0 then k + 1 else k) 0 in
  (* Median time of the chunks that charged a message ([talk]) or none;
     NaN when no chunk was of that kind, as at smoke size. *)
  let chunk_p50 ~talk =
    median
      (Array.of_list
         (List.filteri
            (fun c _ -> (chunk_msgs.(c) > 0) = talk)
            (Array.to_list chunk_us)))
  in
  (* Reconciliation: the local part (sketch work plus estimate reads),
     the send part (messages at the fitted per-message cost) and the
     transport should add up to the feed. *)
  let recon =
    let local =
      (nf *. sk.add_batch_ns *. 1e-9)
      +. (Float.of_int (Workload.chunks n) *. sk.estimate_us *. 1e-6)
    and send = messages *. send_us *. 1e-6
    and transport =
      match w.carrier with Sim -> 0.0 | Tcp -> tcp_feed -. sim_feed
    in
    (own_feed -. local -. send -. transport) /. own_feed
  in
  let traced_mups = Measure.ingest_mups ~n own in
  let sim_drive =
    median_of
      (fun r -> r.Drive.create_s +. r.Drive.feed_s +. r.Drive.close_s)
      sims
  in
  let metrics =
    [
      metric "hashing.mt_ns_per_item" "ns" hash_ns;
      metric "sketch.add_batch_ns_per_update" "ns" sk.add_batch_ns;
      metric "sketch.changed_frac" "fraction" sk.changed_frac;
      metric "sketch.merge_us" "us" sk.merge_us;
      metric "sketch.estimate_us" "us" sk.estimate_us;
      metric "sketch.size_bytes" "bytes" (Float.of_int sk.size_bytes);
      metric "sketch.minor_words_per_update" "words" sk.minor_words;
      metric "tracker.local_ns_per_update" "ns" (local_us *. 1e3);
      metric "tracker.send_us_per_message" "us" send_us;
      metric "tracker.quiet_chunk_us" "us" (chunk_p50 ~talk:false);
      metric "tracker.talk_chunk_us" "us" (chunk_p50 ~talk:true);
      metric "tracker.talk_chunk_frac" "fraction"
        (Float.of_int (talking chunk_msgs)
        /. Float.of_int (max 1 (Array.length chunk_msgs)));
      metric "tracker.sends" "count" (counter (fun c -> c.Drive.sends));
      metric "registry.create_ms" "ms"
        (median_of (fun r -> r.Drive.create_s *. 1e3) own);
      metric "ledger.messages_up" "count"
        (counter (fun c -> c.Drive.messages_up));
      metric "ledger.messages_down" "count"
        (counter (fun c -> c.Drive.messages_down));
      metric "ledger.bytes_up" "bytes" (counter (fun c -> c.Drive.bytes_up));
      metric "ledger.bytes_down" "bytes"
        (counter (fun c -> c.Drive.bytes_down));
      metric "wire.frames_up" "count" (wint (fun s -> s.frames_up));
      metric "wire.frames_down" "count" (wint (fun s -> s.frames_down));
      metric "wire.control_frames" "count" (wint (fun s -> s.control_frames));
      metric "wire.frames_per_envelope" "frames"
        (match ws with
        | Some s when s.batch_envelopes > 0 ->
          Float.of_int s.batch_inner_frames /. Float.of_int s.batch_envelopes
        | _ -> 0.0);
      metric "wire.codec_ns_per_frame" "ns"
        (Result.value codec ~default:Float.nan);
      metric "wire.bytes" "bytes"
        (match wire with
        | Some w -> Float.of_int (w.Drive.relay_sent + w.Drive.relay_received)
        | None -> Float.nan);
      metric "transport.connect_ms" "ms"
        (median_of (fun r -> r.Drive.connect_s *. 1e3) tcps);
      metric "transport.close_ms" "ms"
        (median_of (fun r -> r.Drive.close_s *. 1e3) tcps);
      metric "transport.share" "fraction" (1.0 -. (sim_feed /. tcp_feed));
      metric "transport.us_per_round_trip" "us"
        ((tcp_feed -. sim_feed) *. 1e6 /. wint (fun s -> s.control_frames));
      metric "simulation.harness_share" "fraction"
        (1.0 -. (sim_drive /. simulation_s));
      metric "recon.residual_frac" "fraction" recon;
      metric "trace.overhead_pct" "%"
        ((untraced_mups -. traced_mups) /. untraced_mups *. 100.0);
      metric "accuracy.rel_err" "fraction" (first (rel_err input));
    ]
  in
  { pass; metrics }
