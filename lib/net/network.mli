(** Simulated star network between [k] remote sites and one coordinator,
    with byte-level communication accounting.

    The paper simulates the distributed system on one machine and measures
    bytes exchanged; this module is that simulator's bookkeeping.  Message
    delivery is instantaneous (the paper's simplifying assumption in
    Section 3); what matters is the cost of each send.  Attaching a
    {!Faults.plan} relaxes the reliability half of that assumption: the
    [transmit_*] / [reliable_*] entry points consult the plan on every
    transmission and can drop, duplicate, or corrupt frames and black out
    crashed sites, while the ledger keeps charging every byte that hit a
    link.  With no plan (or a disabled one) those entry points degrade to
    the plain [send_*] recorders, byte for byte.

    Two cost models (Section 7.2 compares them):

    - {!Unicast}: point-to-point links.  A coordinator broadcast to [k]
      sites costs [k] messages.
    - {!Radio_broadcast}: shared medium ("all data is effectively
      broadcast").  A coordinator broadcast costs one message regardless of
      the number of recipients; this is the model in which the paper found
      the eager Shared Sketch algorithm to win by a factor of two.

    Every ledger additionally emits a {!Wd_obs.Event.t} per recorded send
    through its attached {!Wd_obs.Sink.t} (default: the null sink, which
    costs one branch and no allocation).  Protocol drivers stamp the
    ledger's logical clock ({!set_time}) with their update index so
    emitted events carry stream positions. *)

type cost_model = Unicast | Radio_broadcast

val cost_model_to_string : cost_model -> string

type t
(** Mutable communication ledger for one protocol run. *)

val create : ?cost_model:cost_model -> sites:int -> unit -> t
(** [create ~sites ()] is a fresh ledger for [sites] remote sites
    (default cost model {!Unicast}).  Requires [sites >= 1]. *)

val sites : t -> int
val cost_model : t -> cost_model

(** {1 Observability} *)

val set_sink : t -> Wd_obs.Sink.t -> unit
(** Attach a trace sink; every subsequent send emits one event. *)

val sink : t -> Wd_obs.Sink.t

val set_time : t -> int -> unit
(** Set the logical clock stamped on emitted events (callers pass their
    update index).  Also the clock against which {!Faults.crash} windows
    are evaluated and fault rolls are drawn.  It is read only when
    something crosses the network or a crash window is tested, so a
    caller need not set it on every update: setting it before each send
    or forward, on every update while the plan has crash windows, and
    before handing control back to readers gives the same trace as
    setting it every update ({!Transport.S.set_time} states the
    trackers' contract). *)

val time : t -> int

(** {1 Fault injection} *)

val set_faults : t -> Faults.plan -> unit
(** Attach a fault plan consulted by the [transmit_*] and [reliable_*]
    functions below (default {!Faults.none}). *)

val faults : t -> Faults.plan

val site_down : t -> site:int -> bool
(** Whether [site] is inside a crash window at the current {!time}. *)

(** {1 Tree topology}

    Installing a {!Topology.t} turns the star into a multi-level tree:
    site frames cross their site link as before, then hop the backbone
    (aggregator→aggregator→root) — and coordinator messages hop it in
    reverse.  Backbone charges accumulate in dedicated counters, {e not}
    in [bytes_up]/[bytes_down], so the flat-star ledger semantics, the
    golden traces, and the transports' wire reconciliation laws are all
    unchanged by this feature; a flat topology (or none) is
    bit-identical to the seed behaviour.

    Backbone edges are the reliable CDN backbone: they never roll
    drop/duplicate/corrupt faults (and consume no randomness), but an
    aggregator inside a fault-plan crash window — addressed as node
    [sites + j], see {!Topology.node_of_agg} — swallows every frame
    routed through it, failing the transmission end-to-end.  Under
    {!Radio_broadcast} the shared medium still reaches every site
    directly, so broadcasts ignore the tree.

    The up direction is priced by the {e trackers}: after a delivered
    site contribution they walk the site's path calling {!forward_up}
    once per hop with the bytes genuinely new to each aggregator's
    merged sketch — the tree's dedup savings.  The down direction is
    charged automatically by every [send_down]/[transmit_down]/
    broadcast entry point. *)

val set_topology : t -> Topology.t -> unit
(** Install a topology ([Topology.sites] must equal this ledger's
    [sites]; raises [Invalid_argument] otherwise).  Resets the backbone
    counters; install before recording traffic.  A flat topology
    uninstalls the tree. *)

val topology : t -> Topology.t
(** The installed topology ({!Topology.flat} when none was set). *)

val tree_topology : t -> Topology.t option
(** [Some] iff a non-flat tree is installed; allocation-free, for hot
    paths that only need to know whether backbone hops exist. *)

val forward_up : t -> agg:int -> payload:int -> bool
(** Charge one aggregator→parent backbone hop ({!Wire.header_bytes}
    added as usual) and emit a [Forward] event.  Returns [false] iff the
    parent aggregator is inside a crash window (the frame is charged but
    lost).  Raises [Invalid_argument] without a tree topology. *)

val backbone_bytes_up : t -> int
val backbone_bytes_down : t -> int
val backbone_bytes : t -> int
val backbone_messages : t -> int

val grand_total_bytes : t -> int
(** [total_bytes] plus all backbone charges — the whole-tree cost. *)

val root_bytes_in : t -> int
(** Up-direction bytes that actually arrived at the coordinator
    (delivered copies only, acks included), accumulated via each
    sender's parent lookup.  The conservation law — this equals the sum
    of {!edge_delivered_up} over last-hop nodes — is asserted by the
    debug checks after every down-side charge. *)

val agg_bytes_up : t -> int -> int
(** Bytes aggregator [j] forwarded toward the root. *)

val agg_bytes_down : t -> int -> int
(** Bytes relayed down through aggregator [j]. *)

val edge_delivered_up : t -> node:int -> int
(** Delivered up-direction bytes on [node]'s edge to its parent
    ([node < sites]: a site link; otherwise aggregator
    [node - sites]). *)

val set_debug_checks : t -> bool -> unit
(** Enable/disable the internal ledger invariant assertion
    [bytes_down = medium_bytes + sum of site down-links], checked after
    every down-side charge and on {!reset} (default: enabled). *)

(** {1 Wire taps}

    A tap observes every {e charged} transmission at the moment the
    ledger records it — one callback per message copy that occupied a
    link (or the shared medium), including copies that were then lost.
    Transport backends use this to realize the simulator's accounting as
    real frames on a wire: delivery semantics (fault rolls, retries,
    duplicate copies) stay in this module, so every backend shares them
    by construction.  Taps never consume randomness and never affect the
    ledger, so an installed tap leaves runs bit-identical. *)

type tap = {
  on_up : site:int -> payload:int -> lost:Faults.loss option -> unit;
      (** one up-direction message copy charged to [site]'s uplink;
          [lost] names the loss cause when the copy never arrived *)
  on_down : site:int -> payload:int -> lost:Faults.loss option -> unit;
      (** one down-direction message copy charged to [site]'s link *)
  on_medium : payload:int -> unit;
      (** one {!Radio_broadcast} transmission charged to the shared
          medium (per-site reception failures charge nothing and are not
          tapped) *)
}

val set_tap : t -> tap option -> unit
(** Install (or remove) the wire tap (default none). *)

val set_spans : t -> Wd_obs.Span.t option -> unit
(** Attach (or detach) a span recorder (default none).  With a recorder
    attached, every charged message copy and broadcast becomes a
    {!Wd_obs.Event.kind.Span} wrapped around the tap call — under the
    stream carrier the tap is where the real I/O happens, so the span
    measures the wire.  The recorder is also the attachment point the
    transports and trackers read ({!spans}) to stamp their own spans, so
    one [set_spans] call turns on span timing for the whole stack. *)

val spans : t -> Wd_obs.Span.t option

(** {1 Recording traffic}

    All sizes are message payload sizes; {!Wire.header_bytes} is added per
    message automatically. *)

val send_up : t -> site:int -> payload:int -> unit
(** A message from remote site [site] to the coordinator. *)

val send_down : t -> site:int -> payload:int -> unit
(** A unicast message from the coordinator to site [site]. *)

val broadcast_down : t -> except:int option -> payload:int -> unit
(** A coordinator message to every site (except [except] if given).  Under
    {!Unicast} this costs one message per recipient; under
    {!Radio_broadcast} exactly one message (even with [except], since the
    medium is shared). *)

(** {1 Fault-aware delivery}

    These charge the ledger like their [send_*] counterparts and
    additionally report whether the frame(s) arrived, according to the
    attached fault plan.  Lost transmissions are still charged to the
    sender's link (the bytes crossed the wire; the receiver just never
    saw them); duplicate deliveries charge, and count as, one extra
    message per extra copy.  With a disabled plan they are exactly
    [send_*] plus [Delivered 1]. *)

val transmit_up : t -> site:int -> payload:int -> Faults.outcome
val transmit_down : t -> site:int -> payload:int -> Faults.outcome

val transmit_broadcast :
  t -> except:int option -> payload:int -> Faults.outcome array
(** Per-site outcomes, indexed by site; the [except] site reads
    [Delivered 0].  Under {!Unicast} each recipient link is a separate
    transmission (separately charged, separately faulted); under
    {!Radio_broadcast} the shared medium is charged once and only
    reception can fail, at no extra ledger cost. *)

type delivery = { received : bool; acked : bool; attempts : int }
(** Outcome of a reliable exchange: [received] — at least one copy of the
    payload reached the receiver; [acked] — the sender saw an
    acknowledgement (so both ends agree); [attempts] — transmissions of
    the payload, 1 with no retries. [received && not acked] is the
    classic uncertainty window: the receiver has the data but the sender
    must assume it doesn't. *)

val reliable_up :
  ?max_retries:int -> t -> site:int -> payload:int -> delivery
(** Send up with a coordinator ack ({!Wire.ack_bytes} payload down the
    same link) and up to [max_retries] (default 5) retransmissions while
    no ack arrives.  Every attempt and ack is charged and traced
    ([Retry] events mark retransmissions).  With faults disabled this is
    exactly one {!send_up}. *)

val reliable_down :
  ?max_retries:int -> t -> site:int -> payload:int -> delivery
(** Mirror image of {!reliable_up}: payload down, ack up. *)

(** {1 Reading the ledger} *)

val bytes_up : t -> int
val bytes_down : t -> int
val total_bytes : t -> int
val messages_up : t -> int
val messages_down : t -> int
val total_messages : t -> int

val site_bytes_up : t -> int -> int
(** Bytes sent by one site to the coordinator. *)

val site_bytes_down : t -> int -> int
(** Bytes delivered to one site over its point-to-point link: unicast
    sends plus (under {!Unicast}) its copy of each broadcast.  Under
    {!Radio_broadcast}, broadcasts occupy the shared medium rather than
    any site's link and are reported by {!medium_bytes} instead, so
    [bytes_down t = medium_bytes t + sum_i site_bytes_down t i] holds in
    both models. *)

val medium_bytes : t -> int
(** Bytes that crossed the shared broadcast medium ({!Radio_broadcast}
    broadcasts); always [0] under {!Unicast}. *)

(** {1 Fault counters}

    Zero unless an enabled fault plan is attached. *)

val drops : t -> int
(** Transmissions lost for any reason ([link_drops + corrupt_drops +
    crash_drops]). *)

val link_drops : t -> int
val corrupt_drops : t -> int
val crash_drops : t -> int

val duplicate_deliveries : t -> int
(** Extra copies delivered beyond the first, across all links. *)

val retries : t -> int
(** Retransmissions performed by {!reliable_up} / {!reliable_down}. *)

val reset : t -> unit
(** Zero all counters and the logical clock (the cost model, topology and
    attached sink are kept). *)
