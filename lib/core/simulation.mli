(** Drive multi-site workloads through the tracking protocols, recording
    communication cost and continuous accuracy against exact ground truth.

    This is the measurement harness behind every experiment: the paper's
    methodology is to simulate the remote sites and coordinator, count the
    bytes each protocol exchanges, and compare "bytes to bytes" against
    the exact algorithms (EC for counting, EDS for sampling).  Ground
    truth (exact distinct counts / multiplicities) is maintained offline
    by the harness and never consulted by the protocols. *)

module Stream = Wd_workload.Stream

(** {1 The unified run API}

    One driver for every protocol family, over declarative
    {!Wd_view.Query} standing queries.  [run query stream] compiles the
    query (plus any satellite [views]) into a {!Wd_view.Registry},
    drives the whole stream through it, and reports cost and accuracy
    against ground truth maintained harness-side. *)

type view_report = {
  view_label : string;
  view_spec : string;  (** {!Wd_view.Query.to_spec} of the view's query *)
  view_estimate : float;
  view_routed : int;  (** arrivals the view's selector accepted *)
  view_sends : int;
  view_bytes_up : int;
  view_bytes_down : int;
  view_total_bytes : int;
}

(** Protocol-specific extras of a {!run}. *)
type aux =
  | Dc_aux
  | Ds_aux of {
      level : int;  (** final global sampling level *)
      sample : (int * int) list;  (** final (item, count) sample *)
      max_count_error : float;
          (** max relative error of tracked counts vs exact counts over
              the final sample (Lemma 2 bounds this by [theta]) *)
    }
  | Hh_aux of {
      avg_norm_error : float;
          (** mean over the exact top-[k] of
              [|estimate - d_v| / distinct_pairs] *)
      topk_recall : float;
      exact_bytes : int;  (** EC baseline on the same pair stream *)
    }
  | Window_aux of {
      window : int;  (** resolved window width in updates *)
      exact_bytes : int;  (** forward-every-update baseline *)
    }
  | Yz_hh_aux of {
      total_rel_error : float;
          (** [|~N - N| / N] of the coordinator's total-count estimate
              (Yi–Zhang bounds this by the query's [alpha]) *)
      max_rel_error : float;
          (** max over the exact top-[k] of [|estimate - count| / N] *)
      topk_recall : float;
    }
  | Yz_q_aux of {
      rank_error : float;
          (** |exact rank of the tracked median - 0.5|, as a fraction of
              the distinct count over the folded domain *)
      universe : int;  (** resolved (power-of-two) item domain *)
    }

type run = {
  query : Wd_view.Query.t;
  updates : int;
  total_bytes : int;
  bytes_up : int;
  bytes_down : int;
  backbone_bytes : int;
      (** aggregator-hop bytes under a tree topology (0 for flat runs);
          kept out of [total_bytes] so flat-star accounting is untouched
          — the whole-tree cost is the sum of both *)
  sends : int;
  final_estimate : float;
      (** the primary view's final answer: DC/window distinct estimate,
          DS sampler estimate, HH top degree *)
  final_truth : int;
      (** exact counterpart: distinct arrivals that reached the system
          (DC/DS), distinct pairs (HH), windowed distinct count
          (window) *)
  bytes_series : (int * int) array;
  error_series : (int * float) array;
      (** sampled relative error — DC and window queries only *)
  drops : int;
  duplicates : int;
  retries : int;
  lost_updates : int;
  aux : aux;
  view_reports : view_report array;
      (** one row per view, the primary first *)
}

val run :
  ?cost_model:Wd_net.Network.cost_model ->
  ?transport:Wd_net.Transport.t ->
  ?topology:Wd_net.Topology.t ->
  ?item_batching:bool ->
  ?seed:int ->
  ?checkpoints:int ->
  ?error_samples:int ->
  ?sink:Wd_obs.Sink.t ->
  ?metrics:Wd_obs.Metrics.t ->
  ?spans:bool ->
  ?faults:Wd_net.Faults.plan ->
  ?top_k:int ->
  ?views:Wd_view.Query.t list ->
  Wd_view.Query.t ->
  Stream.t ->
  run
(** [run query stream] drives [stream] through [query] and any
    satellite [views], all sharing the single feed pass.

    The primary [query] receives [transport] and [sink], and its byte
    ledger supplies the run's cost fields.  Satellites run on
    private in-process simulator transports (per-view costs are in
    [view_reports]).  A view's hash seed defaults to [seed + index], so
    the primary reproduces a standalone run at [seed] bit-for-bit.

    [transport] supplies the primary's communication backend
    ({!Wd_net.Transport}): the default is a fresh in-process simulator
    with [cost_model], and a {!Wd_net.Transport_tcp} carrier runs the
    same protocol over relay processes.  The run closes the transport
    on completion ({!Wd_net.Transport.close} — a no-op for the
    simulator, the finish/stats exchange for the carrier).

    [sink] is attached to the primary's tracker (protocol events) and
    its byte ledger (message events), and receives a [Run_meta] header;
    the default null sink adds no overhead.  [metrics] additionally
    records harness-side accuracy instruments
    ([wd_estimate_rel_error], [wd_true_distinct]) at the error-sample
    positions.  [spans] (default [false]) attaches a {!Wd_obs.Span}
    recorder to the ledger: every message, broadcast and tracker batch
    becomes a wall-clock span event (trace id derived from [seed]), and
    a wire carrier ships span contexts in its frames, timing real
    cross-process round trips.  Span events are never bit-stable across
    runs — leave this off for golden traces.

    [faults] (default {!Wd_net.Faults.none}) attaches a fault-injection
    plan to the primary's transport — per-link drop/duplicate/corruption
    and scheduled site crashes, with the tracker's recovery machinery
    engaged — and the run record carries the fault counters (window
    queries reject enabled fault plans — they have no transport);
    satellite trackers see the full arrival stream either way.
    [top_k] sizes the HH evaluation ([default 20]).  HH queries expect
    a stream of {!Wd_view.Query.pack_pair}ed [(v, w)] keys — see
    {!stream_of_pairs}.

    [topology] installs a {!Wd_net.Topology} tree on the primary's
    ledger before any traffic: contributions then hop
    site→aggregator→…→root with per-hop accounting in the run's
    [backbone_bytes] (site-link fields are unchanged, so a flat
    topology reproduces the default bit-for-bit).  The primary must
    cover the whole stream (its tracker's site count must match the
    topology's).  Window queries ignore it (their ledger is internal);
    trackers that dedup en route (DC/HH) forward only
    genuinely-new bytes at each hop. *)

(** {1 Distinct-count runs} *)

type dc_run = {
  dc_algorithm : Wd_protocol.Dc_tracker.algorithm;
  dc_updates : int;
  dc_total_bytes : int;
  dc_bytes_up : int;
  dc_bytes_down : int;
  dc_sends : int;
  dc_final_estimate : float;
  dc_final_truth : int;
  dc_bytes_series : (int * int) array;
      (** (updates processed, cumulative total bytes) checkpoints *)
  dc_error_series : (int * float) array;
      (** (updates processed, relative error of the coordinator estimate)
          sampled continuously over the run *)
  dc_drops : int;  (** transmissions lost to injected faults *)
  dc_duplicates : int;  (** extra message copies delivered *)
  dc_retries : int;  (** reliable-send retransmissions *)
  dc_lost_updates : int;
      (** stream arrivals discarded because their site was crashed; these
          are excluded from [dc_final_truth] too *)
}

(** A distinct-count run over any
    {!Wd_sketch.Sketch_intf.DISTINCT_SKETCH} with an explicit sketch
    family — used by the averaged-FM ablation. *)
module Make_dc (Sketch : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) : sig
  val run :
    ?cost_model:Wd_net.Network.cost_model ->
    ?transport:Wd_net.Transport.t ->
    ?item_batching:bool ->
    ?seed:int ->
    ?checkpoints:int ->
    ?error_samples:int ->
    ?confidence:float ->
    ?family:Sketch.family ->
    ?sink:Wd_obs.Sink.t ->
    ?metrics:Wd_obs.Metrics.t ->
    ?spans:bool ->
    ?faults:Wd_net.Faults.plan ->
    algorithm:Wd_protocol.Dc_tracker.algorithm ->
    theta:float ->
    alpha:float ->
    Stream.t ->
    dc_run
  (** [run ~algorithm ~theta ~alpha stream] runs one protocol over the
      whole stream.  [alpha] sizes the sketch family unless [family]
      overrides it; [confidence] defaults to 0.9 ([delta = 0.1], as in
      all paper experiments); [checkpoints] (default 20) and
      [error_samples] (default 200) control the series resolutions.
      The site count is [Stream.num_sites stream].

      [sink], [metrics], [spans], [faults] and [transport] behave as in
      the unified [run] above: the transport defaults to a fresh
      in-process simulator with [cost_model] and is closed when the run
      completes. *)
end

module Dc_fm : module type of Make_dc (Wd_sketch.Fm)
(** The FM instantiation, exposed for runs that need an explicit FM
    family (e.g. the averaged-variant ablation). *)

(** {1 Distinct heavy-hitter pair streams} *)

type pair_stream = { psites : int array; vs : int array; ws : int array }
(** A multi-site stream of [(v, w)] pairs. *)

val pair_stream_length : pair_stream -> int
val pair_stream_sites : pair_stream -> int

val pair_stream_of_requests :
  Wd_workload.Http_trace.config ->
  Wd_workload.Http_trace.site_view ->
  Wd_workload.Http_trace.request array ->
  pair_stream
(** [(v, w) = (objectID, clientID)]: track the objects requested by the
    most distinct clients, as in Figure 7(c). *)

val stream_of_pairs : pair_stream -> Stream.t
(** The pair stream as a single-item stream of
    {!Wd_view.Query.pack_pair}ed keys — the form {!run} consumes for HH
    queries.  Requires [0 <= v, w < 2^31]. *)

(** {1 Ground truth helpers} *)

val true_distinct_prefixes : Stream.t -> samples:int -> (int * int) array
(** Exact distinct counts at [samples] evenly spaced prefixes. *)

val exact_dc_bytes : Stream.t -> int
(** Total bytes the EC baseline sends on this stream (header + item per
    locally-new item), computed without running a tracker. *)

val exact_ds_bytes : Stream.t -> int
(** Total bytes the EDS baseline sends (header + item per update). *)
