(* Repetition control, correctness checks and the end-to-end metrics of
   the untraced pass. *)

module Stats = Wd_eval.Stats

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float array;
      (** per-repetition values behind [value] (what [compare] reads its
          quartiles from); a single value for per-run quantities *)
}

let metric ?samples name unit_ value =
  { name; unit_; value; samples = Option.value samples ~default:[| value |] }

let median xs = Stats.quantile xs 0.5

(* Discarded repetitions before the untraced pass's timed ones.  One is
   enough: the run's timings are the fastest chunk times, which a slow
   first repetition cannot move, and the warm-up still pays for the
   first-touch page faults of the input. *)
let warmups = 1

type config = {
  seed : int;
  seconds : float;  (** timed repetitions per pass run for this long *)
  min_reps : int;
  max_reps : int;
  size : float;  (** multiplies each workload's input size *)
}

type pass = {
  reps : Drive.rep list;  (** timed repetitions that passed every check *)
  attempted : int;
  failed : int;
  errors : string list;
}

let empty = { reps = []; attempted = 0; failed = 0; errors = [] }

let add_outcome p = function
  | Ok r -> { p with reps = p.reps @ [ r ]; attempted = p.attempted + 1 }
  | Error e ->
    {
      p with
      attempted = p.attempted + 1;
      failed = p.failed + 1;
      errors = p.errors @ [ e ];
    }

let merge a b =
  {
    reps = a.reps @ b.reps;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    errors = a.errors @ b.errors;
  }

(* Run [f] once, turning every failure (a check, an exception, a relay
   timeout) into an [Error]. *)
let attempt f =
  match f () with
  | r -> r
  | exception Drive.Rep_failed e -> Error e
  | exception e -> Error (Printexc.to_string e)

(* [warmups] discarded repetitions, then timed ones until [seconds] is
   spent: a new repetition starts only if the mean so far says it fits,
   and at least [min_reps], at most [max_reps] run.  [f] gets the
   repetition's index, counting the warm-ups. *)
let repeat ~warmups ~seconds ~min_reps ~max_reps f =
  let warm = ref empty in
  for k = 0 to warmups - 1 do
    warm := add_outcome !warm (attempt (fun () -> f k))
  done;
  let t0 = Drive.now () in
  let rec go p k =
    let elapsed = Drive.now () -. t0 in
    let mean = if k = 0 then 0.0 else elapsed /. Float.of_int k in
    if k >= max_reps || (k >= min_reps && elapsed +. mean > seconds) then p
    else go (add_outcome p (attempt (fun () -> f (warmups + k)))) (k + 1)
  in
  let timed = go empty 0 in
  { timed with
    attempted = timed.attempted + !warm.attempted;
    failed = timed.failed + !warm.failed;
    errors = !warm.errors @ timed.errors }

(* What every repetition must satisfy besides completing: equality with
   the reference run (the sim twin of a TCP workload, else the
   workload's first repetition), and
   for DS Lemma 2's bound on tracked counts. *)
let check ~theta ~reference (r : Drive.rep) =
  (match !reference with
  | None -> reference := Some r
  | Some ref_rep ->
    Option.iter (Drive.fail "differs from the reference run: %s")
      (Drive.same_run ref_rep r));
  Option.iter
    (fun e ->
      if e > theta then
        Drive.fail "Lemma 2 violated: count error %.4f > theta %.4f" e theta)
    r.Drive.max_count_error;
  Ok r

(* A run's chunk profile: for each chunk position, its fastest time over
   the timed repetitions.  Every repetition feeds the same input, so
   position c does the same work in each, and the host can only add
   time to it: on the shared virtual machine the bounds were set on,
   slow phases of seconds to minutes stretch the same work by up to
   twice.  The minimum is the estimate such noise moves least (Chen and
   Revels, "Robust benchmarking in noisy environments", 2016), and the
   chunks that stay slow in it are slow because of their own work, the
   ones that send.  The run's timings are read off this profile. *)
let fastest (reps : Drive.rep list) f =
  List.fold_left (fun m r -> Float.min m (f r)) Float.infinity reps

let chunk_profile (reps : Drive.rep list) =
  match reps with
  | [] -> [||]
  | r0 :: _ ->
    Array.init (Array.length r0.Drive.chunk_us) (fun c ->
        fastest reps (fun r -> r.Drive.chunk_us.(c)))

(* Updates per second through the feed and [Registry.close]: the chunk
   profile's total plus the fastest close. *)
let ingest_mups ~n (reps : Drive.rep list) =
  if reps = [] then Float.nan
  else
    let feed_s = Array.fold_left ( +. ) 0.0 (chunk_profile reps) *. 1e-6 in
    Float.of_int n /. (feed_s +. fastest reps (fun r -> r.Drive.close_s)) /. 1e6

let end_to_end ~n ~state_words (pass : pass) =
  let reps = Array.of_list pass.reps in
  let per f = Array.map f reps in
  let first f = if reps = [||] then Float.nan else f reps.(0) in
  let profile = chunk_profile pass.reps in
  let mups = per (fun r -> Float.of_int n /. Drive.ingest_s r /. 1e6) in
  let setups = per Drive.setup_s in
  let alloc = per (fun r -> r.Drive.minor_words /. Float.of_int n) in
  let p50 = per (fun r -> Stats.quantile r.Drive.chunk_us 0.5) in
  let p99 = per (fun r -> Stats.quantile r.Drive.chunk_us 0.99) in
  [
    metric "ingest_mups" "Mupd/s" ~samples:mups (ingest_mups ~n pass.reps);
    metric "chunk_p50_us" "us" ~samples:p50 (Stats.quantile profile 0.5);
    metric "chunk_p99_us" "us" ~samples:p99 (Stats.quantile profile 0.99);
    (* Set up once per repetition, so several times per run. *)
    metric "setup_s" "s" ~samples:setups (median setups);
    metric "total_bytes" "bytes"
      (first (fun r -> Float.of_int r.Drive.counters.total_bytes));
    metric "messages" "count"
      (first (fun r ->
           Float.of_int
             (r.Drive.counters.messages_up + r.Drive.counters.messages_down)));
    metric "alloc_words_per_update" "words" ~samples:alloc (median alloc);
    metric "state_mb" "MB" (Float.of_int (state_words * 8) /. 1e6);
  ]
