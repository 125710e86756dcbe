(** A bundled duplicate-resilient monitoring service.

    One [Monitor.t] wires together, for a single site topology, the three
    trackers the paper composes in Section 6 — a distinct-count tracker,
    a distinct-sample tracker, and (optionally) a distinct heavy-hitter
    structure — behind the full query menu:

    - how many distinct events have occurred ({!distinct});
    - how many events are unique / the whole inverse distribution of
      duplication ({!unique}, {!duplication_fraction},
      {!median_duplication});
    - which keys are associated with the most distinct partners
      ({!top_keys}, {!key_degree}).

    Feed unkeyed events with {!observe}; feed keyed events (e.g.
    (objectID, clientID) requests) with {!observe_pair}, which tracks the
    pair as a distinct event {e and} updates the heavy-hitter structure.
    All queries are answered continuously from coordinator state; the
    communication spent so far is always available ({!total_bytes},
    {!bytes_breakdown}). *)

type config = {
  sites : int;
  epsilon : float;  (** distinct-count error budget *)
  confidence : float;
  theta_fraction : float;  (** lag share of [epsilon] *)
  sample_threshold : int;  (** distinct-sample size T *)
  sample_theta : float;  (** count-lag budget of the sampler *)
  dc_algorithm : Wd_protocol.Dc_tracker.algorithm;
  ds_algorithm : Wd_protocol.Ds_tracker.algorithm;
  hh : Wd_aggregate.Fm_array.config option;
      (** heavy-hitter array shape; [None] disables {!observe_pair}'s
          ranking (pairs are still counted as events) *)
  hh_algorithm : Wd_protocol.Dc_tracker.algorithm;
  cost_model : Wd_net.Network.cost_model;
  seed : int;
  faults : Wd_net.Faults.plan;
      (** fault-injection plan applied to the distinct-count and
          distinct-sample networks ({!Wd_net.Faults.none} disables it) *)
  staleness_bound : int;
      (** updates a site may spend inside a crash window before the
          monitor reports it {!Degraded} *)
}

val default_config : sites:int -> config
(** LS + LCO at the paper's preferred settings (epsilon 0.1, theta
    fraction 0.15, T = 1000, a 3x256x12 heavy-hitter array), no faults,
    staleness bound 5000 updates. *)

type status = Healthy | Degraded of int list
    (** [Degraded sites] lists sites partitioned (crashed and not yet
        recovered) for longer than {!config.staleness_bound} updates;
        their contributions are frozen at the last synchronization, so
        answers may under-count until they resync. *)

type t

val create :
  ?transport:(label:string -> sites:int -> Wd_net.Transport.t) -> config -> t
(** Raises [Invalid_argument] on inconsistent settings (via the
    underlying constructors).  [transport] is a factory called once per
    tracker (labels ["distinct-count"], ["distinct-sample"],
    ["heavy-hitters"]) to supply each communication backend; the default
    builds a fresh in-process simulator ({!Wd_net.Transport_sim}) per
    tracker with [config.cost_model], which is the pre-transport
    behaviour byte for byte. *)

val close : t -> unit
(** Close every tracker's transport ({!Wd_net.Transport.close}): a
    no-op on simulator backends, the finish/stats exchange on the
    stream carrier.  Idempotent; queries remain answerable afterwards. *)

val config : t -> config

val attach_sink : t -> Wd_obs.Sink.t -> unit
(** Attach one trace sink to all three trackers and their byte ledgers,
    so the sink sees both protocol-decision events and every message.
    The default is the null sink (no overhead). *)

(** {1 Feeding} *)

val observe : t -> site:int -> int -> unit
(** One unkeyed event at a site. *)

val observe_pair : t -> site:int -> v:int -> w:int -> unit
(** One keyed event: the pair is tracked as a distinct event, and [v]'s
    distinct-partner degree is updated when the heavy-hitter structure is
    enabled. *)

(** {1 Queries} — all continuous, no communication triggered. *)

val distinct : t -> float
(** Estimated number of distinct events. *)

val unique : t -> float
(** Estimated number of events observed exactly once. *)

val sample : t -> (int * int) list
(** The current distinct sample with approximate global counts. *)

val median_duplication : t -> int option

val duplication_fraction : t -> (int -> bool) -> float
(** Fraction of distinct events whose occurrence count satisfies the
    predicate. *)

val top_keys : t -> k:int -> (int * float) list
(** Keys by estimated distinct-partner degree; empty when the
    heavy-hitter structure is disabled. *)

val key_degree : t -> int -> float
(** [0] when the heavy-hitter structure is disabled. *)

(** {1 Health} *)

val status : t -> status
(** {!Healthy}, or the sorted list of sites down past the staleness
    bound on either core tracker.  Computed generically over the packed
    {!Wd_protocol.Tracker_intf.packed} views of the core trackers. *)

val lost_updates : t -> int
(** Stream arrivals discarded across both core trackers because their
    site was inside a crash window. *)

(** {1 Accounting} *)

val total_bytes : t -> int

val bytes_breakdown : t -> (string * int) list
(** Per-tracker byte totals: [("distinct-count", _); ("distinct-sample",
    _); ("heavy-hitters", _)]. *)
