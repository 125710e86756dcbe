(** The continuous-view registry: many standing {!Query.t}s compiled onto
    one shared site stream, fed through a single {!Wd_protocol.Tracker_intf}
    surface.

    A registry holds an ordered list of views.  View [0] is the
    {e primary}: it receives the caller's transport and trace sink,
    exactly as a standalone tracker would — a one-view registry
    over the whole stream ([selector = All]) {e is} its tracker,
    bit-for-bit ({!packed} returns the view's own tracker, so batching,
    byte accounting and trace events are untouched).  Satellite views run
    on private in-process simulator transports and a null sink.

    Each arrival is offered to every view whose {!Query.selector} accepts
    it; [Sites] views see re-based site indices and run a tracker sized
    to their slice.  [Key_mod] views sharing a modulus are routed through
    one residue-indexed dispatch table, so the per-arrival fan-out cost
    scales with the number of distinct moduli, not the number of views.  Views whose queries name the [Fanout] sketch share
    one {!Fanout_sketch.plane} — one mixed-tabulation hash evaluation per
    item serves every subscribed view, and their registers live in one
    arena. *)

type t

val create :
  ?cost_model:Wd_net.Network.cost_model ->
  ?transport:Wd_net.Transport.t ->
  ?item_batching:bool ->
  ?sink:Wd_obs.Sink.t ->
  ?plane_capacity:int ->
  ?default_window:int ->
  seed:int ->
  sites:int ->
  Query.t list ->
  t
(** [create ~seed ~sites queries] compiles every query into a running
    tracker.  A view's hash seed is [Query.seed] when set, else
    [seed + index] — so view [0] with no explicit seed reproduces a
    standalone run at [seed] exactly.  [transport] and [sink] apply to
    the primary only; [cost_model] and [item_batching] apply
    everywhere.  [default_window] resolves window queries with
    [window = 0] (required if any such query is present).
    [plane_capacity] presizes the shared fanout arena (in registers).

    Raises [Invalid_argument] if [queries] is empty, a [Sites] selector
    falls outside [0 .. sites - 1], or [transport] is passed with a
    window primary (window trackers have no transport). *)

val views : t -> int
val sites : t -> int
val query : t -> int -> Query.t
val label : t -> int -> string

val packed : t -> Wd_protocol.Tracker_intf.packed
(** The feed surface a driver observes arrivals into.  With one view
    over the whole stream this is the view's own tracker (the legacy
    fast path); otherwise a fan-out tracker of [kind = "view"] whose
    estimate/ledger accessors proxy the primary. *)

val view_tracker : t -> int -> Wd_protocol.Tracker_intf.packed
(** One view's own tracker, for per-view estimates and byte ledgers.
    [Wd_protocol.Tracker_intf.transport] raises for window views. *)

val estimate : t -> int -> float
(** [estimate t i] is view [i]'s current answer (DC distinct estimate,
    DS sampler estimate, HH top-degree, windowed distinct count). *)

val routed : t -> int -> int
(** Arrivals view [i]'s selector has accepted so far (the view
    tracker's own update count). *)

val plane_words : t -> int
(** Registers allocated on the shared fanout plane ([0] without fanout
    views). *)

val ds_tracker : t -> int -> Wd_protocol.Ds_tracker.t option
(** The raw DS tracker behind view [i] ([None] for other protocols) —
    for sample/level introspection. *)

val hh_tracker : t -> int -> Wd_aggregate.Distinct_hh.Tracked.t option
val window_tracker : t -> int -> Wd_protocol.Window_tracker.t option
val yzhh_tracker : t -> int -> Wd_protocol.Yz_hh_tracker.t option
val yzq_tracker : t -> int -> Wd_aggregate.Yz_quantile_tracker.t option

val close : t -> unit
(** Close every view's transport, primary first.  Idempotent. *)
