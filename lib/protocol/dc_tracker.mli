(** Continuous distributed tracking of the number of distinct items
    (Section 4 of the paper).

    [k] remote sites each observe an insertion stream; the coordinator must
    at all times hold an estimate [DC] of the number of distinct items in
    the union of the streams with [Pr[|DC - N_0| <= eps * N_0] >= 1 - delta]
    (Definition 1), while minimizing the bytes exchanged.

    Every algorithm follows the same skeleton (the paper's Figure 2): each
    update enters a local sketch; when the local estimate exceeds a
    threshold [skt], the site ships its sketch to the coordinator, which
    merges it and possibly sends information back ([skm]).  The four
    variants differ only in [skt] and [skm]:

    {ul
    {- {!NS} (No Sharing): [skt = D_i^t (1 + theta/k)], no downstream
       traffic.}
    {- {!SC} (Shared Count): [skt = D_i^t + (theta/k) D_0^t]; the
       coordinator broadcasts its estimate [D_0] whenever it changes.}
    {- {!SS} (Shared Sketch): sites maintain a copy of the {e global}
       sketch; [skt = D_0^t (1 + theta/k)]; the coordinator broadcasts the
       merged sketch [Sk_0] to every site except the sender on every
       update.}
    {- {!LS} (Lazily Shared Sketch): same threshold as SS, but [Sk_0]
       is returned only to the site that triggered the update.}
    {- {!EC} (Exact Count): the exact baseline — each site forwards each
       item the first time it is seen locally; the coordinator counts
       exactly.  Communication [O(sum_i N_i)], space [Omega(U)].}}

    All four approximate algorithms guarantee error at most [alpha + theta]
    with probability [1 - delta] (Lemma 1), where [alpha] is the sketch
    accuracy baked into the family.

    The implementation includes the Section 4.2 communication optimization
    (on by default): while the set of sketch-changing items accumulated
    since a site's last send is smaller on the wire than the sketch itself,
    the site ships those items verbatim instead of the sketch — so a
    sketch-based site never sends more than the exact algorithm would. *)

type algorithm = NS | SC | SS | LS | EC

val all_algorithms : algorithm list
(** [NS; SC; SS; LS; EC] in paper order. *)

val approximate_algorithms : algorithm list
(** [NS; SC; SS; LS]. *)

val algorithm_to_string : algorithm -> string
val algorithm_of_string : string -> algorithm option

module Make (Sketch : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) : sig
  type t
  (** One protocol instance: [k] site states plus the coordinator state,
      with a byte ledger. *)

  val create :
    ?cost_model:Wd_net.Network.cost_model ->
    ?network:Wd_net.Network.t ->
    ?transport:Wd_net.Transport.t ->
    ?item_batching:bool ->
    ?delta_replies:bool ->
    ?max_retries:int ->
    ?sink:Wd_obs.Sink.t ->
    algorithm:algorithm ->
    theta:float ->
    sites:int ->
    family:Sketch.family ->
    unit ->
    t
  (** [create ~algorithm ~theta ~sites ~family ()] builds a fresh tracker.
      [theta] is the lag budget (ignored by [EC]); [family] fixes the
      shared sketch hash functions and dimensioning (its accuracy is the
      [alpha] of Lemma 1).  [item_batching] toggles the Section 4.2
      optimization (default [true]).  [delta_replies] (default [true])
      prices LS replies as the delta against what the coordinator knows
      the sender already holds — the Section 4.2 "encode the difference
      between subsequent sketches" optimization, applicable to LS because
      the reply's recipient state is known exactly; turn it off to ship
      full sketches as the paper's plain description does.  [transport]
      supplies the communication backend all traffic rides
      ({!Wd_net.Transport}); by default the tracker builds an in-process
      simulator ({!Wd_net.Transport_sim}) with the given [cost_model].
      [network] instead supplies a shared byte ledger (with a matching
      site count) so that many tracker instances — e.g. the per-cell
      trackers of the distinct heavy-hitter structure — can account
      their traffic jointly; it is wrapped in a simulator backend, and
      passing both [network] and [transport] is an error.  [sink]
      receives
      protocol-decision trace events (threshold crossings, sketch sends,
      estimate updates, LS resyncs); the default null sink is free on the
      update path.  [max_retries] (default 5) bounds retransmissions per
      reliable exchange when the shared network carries an enabled
      {!Wd_net.Faults.plan}; with no fault plan the tracker behaves — and
      spends — exactly as the reliable-channel protocol.  Requires
      [sites >= 1] and [theta > 0]. *)

  val set_sink : t -> Wd_obs.Sink.t -> unit
  (** Attach a trace sink for protocol-decision events.  Network-level
      [message]/[broadcast] events are emitted by the byte ledger itself —
      attach a sink there too ({!Wd_net.Network.set_sink} on {!network})
      to capture both layers. *)

  val updates : t -> int
  (** Number of {!observe} calls so far (the update index stamped on
      emitted trace events). *)

  val observe : t -> site:int -> int -> unit
  (** [observe t ~site v] processes the arrival of item [v] at remote site
      [site], triggering whatever communication the algorithm requires. *)

  val observe_batch :
    t -> sites:int array -> items:int array -> pos:int -> len:int -> unit
  (** [observe_batch t ~sites ~items ~pos ~len] processes the [len]
      arrivals [items.(pos) .. items.(pos + len - 1)], each at the site
      given by the matching entry of [sites].  Observationally identical,
      update for update, to calling {!observe} in a loop — every
      threshold crossing, send and byte charged lands at the same update
      index — but the fault-plan and bounds checks are hoisted out of the
      per-item loop.  The preferred feed for the batched simulator, which
      hands whole stream slices to the tracker between its sample points.
      Raises [Invalid_argument] on a [sites]/[items] length mismatch or a
      slice out of range. *)

  val estimate : t -> float
  (** The coordinator's current answer [DC] — available continuously with
      no further communication. *)

  val algorithm : t -> algorithm
  val sites : t -> int
  val theta : t -> float

  val network : t -> Wd_net.Network.t
  (** The byte ledger: read it to measure communication cost.  Always
      [Wd_net.Transport.ledger (transport t)]. *)

  val transport : t -> Wd_net.Transport.t
  (** The communication backend this tracker sends through. *)

  val site_estimate : t -> int -> float
  (** A site's current local-sketch estimate [D_i] (for tests and
      introspection; not a protocol output). *)

  val site_send_threshold : t -> int -> float
  (** The threshold [skt] a site's estimate must exceed before it ships
      its sketch (Figure 2), under the current shared state — for tests
      and introspection.  Raises [Invalid_argument] for {!EC}, naming the
      algorithm: the exact protocol forwards items unconditionally and
      has no send threshold. *)

  (** This tracker seen through the shared {!Tracker_intf.TRACKER}
      surface (thresholds are per-site, so the generic view's [item] is
      ignored). *)
  module Generic : Tracker_intf.TRACKER with type t = t

  val generic : t -> Tracker_intf.packed
  (** Pack for generic drivers ({!Tracker_intf}). *)

  val coordinator_sketch : t -> Sketch.t option
  (** The coordinator's merged sketch ([None] for {!EC}). *)

  val site_sketch : t -> int -> Sketch.t option
  (** A site's local sketch — under SS/LS this is its copy of the global
      sketch merged with local arrivals ([None] for {!EC}).  Exposed for
      tests and introspection; treat as read-only. *)

  val sends : t -> int
  (** Number of site-to-coordinator communication events so far. *)

  val site_down_for : t -> int -> int
  (** How many updates ago site [i] entered its current crash window; [0]
      when the site is up.  Feeds the monitor's staleness/degraded
      status. *)

  val lost_updates : t -> int
  (** Stream arrivals discarded because their site was inside a crash
      window — information no protocol can recover. *)

  val site_space_bytes : t -> int -> int
  (** Current memory footprint of one remote site, in the paper's
      Section 4.2 accounting: its sketch(es) plus the pending-item set of
      the communication optimization (EC: the exact seen-item set, the
      [Omega(U)] cost the approximate algorithms avoid). *)

  val coordinator_space_bytes : t -> int
  (** Current memory footprint of the coordinator: its merged sketch and
      (when delta replies are enabled) its per-site knowledge models. *)
end

module Fm : module type of Make (Wd_sketch.Fm)
(** The default instantiation over the Flajolet–Martin sketch, as in the
    paper's experiments. *)
