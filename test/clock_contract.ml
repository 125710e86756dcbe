(* The trackers' clock contract as a check.  A tracker pushes its update
   count to the transport only before it moves a message, once per update
   while the fault plan has crash windows, and at the end of every
   [observe]/[observe_batch] call.  Its trace must equal the one stamped
   when the clock is set before every update.

   The reference run sets [Transport.set_time] to [updates + 1] before
   each [observe], which is the eager clock; the candidate feeds the same
   updates through [observe_batch] in [chunk]-update slices.  Both runs
   record the ledger's and the tracker's events in one ring, and the two
   [(time, event)] lists must be equal. *)

module Transport = Wd_net.Transport
module Tracker_intf = Wd_protocol.Tracker_intf
module Sink = Wd_obs.Sink
module Event = Wd_obs.Event
module Rng = Wd_hashing.Rng
module Fm = Wd_sketch.Fm
module Sampler = Wd_sketch.Distinct_sampler
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Yzh = Wd_protocol.Yz_hh_tracker
module Yzq = Wd_aggregate.Yz_quantile_tracker

let chunk = 4096
let capacity = 300_000

(* Every tracker the contract covers, as a builder over a transport. *)
let dc algorithm transport =
  let family =
    Fm.family_custom ~rng:(Rng.create 5) ~variant:Fm.Stochastic ~bitmaps:32
  in
  Dc.Fm.generic
    (Dc.Fm.create ~transport ~algorithm ~theta:0.05
       ~sites:(Transport.sites transport) ~family ())

let ds algorithm transport =
  let family = Sampler.family ~rng:(Rng.create 6) ~threshold:64 in
  Ds.generic
    (Ds.create ~transport ~algorithm ~theta:0.25
       ~sites:(Transport.sites transport) ~family ())

let yzhh transport =
  Yzh.generic
    (Yzh.create ~transport ~epsilon:0.1 ~top_k:5
       ~sites:(Transport.sites transport) ())

let yzq transport =
  Yzq.generic
    (Yzq.create ~transport ~rng:(Rng.create 7) ~universe:4096
       ~config:Wd_aggregate.Distinct_quantiles.default_config ~epsilon:0.1
       ~sites:(Transport.sites transport) ())

let trackers =
  List.map (fun a -> (Dc.algorithm_to_string a, dc a)) Dc.all_algorithms
  @ List.map (fun a -> (Ds.algorithm_to_string a, ds a)) Ds.all_algorithms
  @ [ ("YZ-HH", yzhh); ("YZ-Q", yzq) ]

(* The events of one run of [make transport] over [sites]/[items]. *)
let trace ~eager make transport ~sites ~items =
  let tr = make transport in
  let ring = Sink.ring ~capacity in
  Transport.set_sink transport ring;
  Tracker_intf.set_sink tr ring;
  let n = Array.length items in
  if eager then
    Array.iteri
      (fun j site ->
        Transport.set_time transport (Tracker_intf.updates tr + 1);
        Tracker_intf.observe tr ~site items.(j))
      sites
  else begin
    let pos = ref 0 in
    while !pos < n do
      let len = min chunk (n - !pos) in
      Tracker_intf.observe_batch tr ~sites ~items ~pos:!pos ~len;
      pos := !pos + len;
      (* A reader between calls sees the clock at the last update. *)
      Alcotest.(check int)
        "clock after observe_batch" (Tracker_intf.updates tr)
        (Transport.time transport)
    done
  end;
  let events = Sink.ring_contents ring in
  if List.length events >= capacity then
    Alcotest.fail "trace overflowed its ring";
  events

(* [reference] and [candidate] are the two runs' traces. *)
let check label ~reference ~candidate =
  Alcotest.(check bool) (label ^ ": trace non-empty") true (reference <> []);
  let rec go i a b =
    match (a, b) with
    | [], [] -> ()
    | ea :: a, eb :: b when ea = eb -> go (i + 1) a b
    | ea :: _, eb :: _ ->
      Alcotest.failf "%s: traces diverge at event %d (%s at %d vs %s at %d)"
        label i
        (Event.kind_name ea.Event.kind)
        ea.Event.time
        (Event.kind_name eb.Event.kind)
        eb.Event.time
    | _ ->
      Alcotest.failf "%s: trace lengths differ (%d vs %d)" label
        (List.length reference) (List.length candidate)
  in
  go 0 reference candidate
