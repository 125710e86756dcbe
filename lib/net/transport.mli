(** The [TRANSPORT] abstraction: one signature, many carriers.

    Protocol code (trackers, Monitor, Simulation) talks to the network
    through this module's packed {!t} and never names a backend.  A
    backend is a {e carrier}: it owns a {!Network.t} ledger — the single
    source of truth for delivery semantics, fault rolls, acked retries
    and byte accounting — plus whatever real machinery moves frames.

    Two backends ship:

    - {!Transport_sim}: the in-process simulator.  The carrier is the
      ledger itself; nothing else happens.  Byte-for-byte identical to
      calling {!Network} directly.
    - {!Transport_tcp}: the stream carrier.  Sites are served by relay
      processes connected over a loopback TCP port or a Unix-domain
      socket path, each connection carrying a contiguous range of
      sites, speaking the length-prefixed, version-tagged {!Wire.Frame}
      format.  The carrier installs a {!Network.tap} so that every byte
      the ledger charges is realized as a real frame written to (or
      read from) a socket, and exposes {!wire_stats} so tests can
      reconcile the ledger against bytes that actually crossed the
      wire.

    Because the delivery logic lives in the shared ledger and carriers
    only {e realize} its decisions, a fixed-seed run produces identical
    estimates, message counts and byte ledgers on every backend — the
    equivalence is by construction, and [test_transport.ml] pins it.

    Construction is backend-specific ([Transport_sim.create],
    [Transport_tcp.Coordinator.connect]); the signature covers the
    {e running} transport: sending, clock/crash hooks, accounting reads,
    and teardown. *)

type wire_stats = {
  frames_up : int;  (** [Up] frames read off relay connections *)
  frames_down : int;  (** [Deliver] frames written (one per ledger charge) *)
  wire_bytes_up : int;  (** on-wire bytes of those [Up] frames *)
  wire_bytes_down : int;  (** on-wire bytes of those [Deliver] frames *)
  control_frames : int;  (** [Request_up] control frames written *)
  control_bytes : int;  (** on-wire bytes of control frames *)
  radio_copy_bytes : int;
      (** extra per-site copies of {!Network.Radio_broadcast} frames
          beyond the single ledger-charged transmission *)
  skipped_up : int;
      (** ledger bytes charged up while the site was detached (crash
          window), so no frame was exchanged; ledger units *)
  skipped_down : int;  (** same, down direction; ledger units *)
  reconnects : int;  (** sites reattached after a crash window *)
  span_frames_up : int;
      (** frames read that carried a {!Wire.Frame.span} context block;
          0 unless a span recorder was attached to the ledger *)
  span_frames_down : int;
      (** frames written with a span context block (delivers, radio
          copies and [Request_up] control frames alike) *)
  batch_envelopes : int;
      (** {!Wire.Frame.Batch} envelopes written (one per flush of a
          connection's buffered delivers) *)
  batch_inner_frames : int;
      (** frames carried inside those envelopes; each is also counted in
          [frames_down]/[radio_copy_bytes] as if written alone *)
}
(** Counters a wire-backed carrier keeps alongside the ledger.  They tie
    the two accountings together:
    [wire_bytes_up
     = ledger bytes_up - skipped_up
       + frames_up * (Wire.Frame.header_bytes - Wire.header_bytes)]
    and symmetrically for down (with [radio_copy_bytes] and
    [control_bytes] on top of the down-direction socket traffic).
    Span context blocks are wire overhead outside both byte counts:
    actual socket traffic additionally includes
    [span_frames_* * Wire.Frame.span_bytes] in each direction, which is
    how the relays' raw byte reports reconcile when spans are on.
    Batch envelopes are the same kind of overhead in the down direction:
    the carrier's raw traffic additionally includes
    [batch_envelopes * Wire.Frame.header_bytes], while the inner frames
    keep their stand-alone accounting in [frames_down] /
    [wire_bytes_down] / [radio_copy_bytes]. *)

(** Interface every transport backend implements.  Everything except
    {!S.set_time}, {!S.close} and {!S.wire_stats} is semantically fixed
    by the backend's {!S.ledger}; backends differ in what {e else}
    happens (frames on a wire, sites detached over crash windows). *)
module type S = sig
  type t

  val name : string
  (** Backend name for traces and errors, e.g. ["sim"], ["tcp"]. *)

  val ledger : t -> Network.t
  (** The byte ledger this backend charges.  Shared accounting — and
      shared delivery semantics — across all backends. *)

  (** {2 Topology and observability} *)

  val sites : t -> int
  val cost_model : t -> Network.cost_model
  val set_sink : t -> Wd_obs.Sink.t -> unit
  val sink : t -> Wd_obs.Sink.t

  (** {2 Clock and faults}

      [set_time] is the crash hook: wire-backed carriers evaluate crash
      windows here, detaching a crashed site at window entry and
      reattaching it at window exit.

      The clock contract: the tracker that drives a transport owns the
      logical clock (its update count) and pushes it here only when
      something reads it, not on every update:
      - before every call that can move a message (sends, broadcasts,
        acked exchanges, backbone forwards), which stamp ledger events
        and spans and roll faults at the current {!time};
      - once per update while the fault plan has crash windows, so
        {!site_down} and the carrier's crash hook see every window
        boundary;
      - at the end of every [observe] and [observe_batch] call, so a
        reader between calls sees the clock at the last update.

      A quiet update inside [observe_batch] therefore makes no transport
      call.  A run stamps the same times as one that set the clock
      before every update. *)

  val set_time : t -> int -> unit
  val time : t -> int
  val set_faults : t -> Faults.plan -> unit
  val faults : t -> Faults.plan
  val site_down : t -> site:int -> bool

  (** {2 Sending}

      Same contracts as the {!Network} functions of the same names. *)

  val send_up : t -> site:int -> payload:int -> unit
  val send_down : t -> site:int -> payload:int -> unit
  val broadcast_down : t -> except:int option -> payload:int -> unit
  val transmit_up : t -> site:int -> payload:int -> Faults.outcome
  val transmit_down : t -> site:int -> payload:int -> Faults.outcome

  val transmit_broadcast :
    t -> except:int option -> payload:int -> Faults.outcome array

  val reliable_up :
    ?max_retries:int -> t -> site:int -> payload:int -> Network.delivery

  val reliable_down :
    ?max_retries:int -> t -> site:int -> payload:int -> Network.delivery

  (** {2 Teardown and wire accounting} *)

  val close : t -> unit
  (** Tear the transport down: a no-op for the simulator; for the stream
      carrier, finish every relay (collecting its final counters) and
      close all sockets.  Idempotent. *)

  val wire_stats : t -> wire_stats option
  (** [None] for purely simulated carriers; [Some] for a wire-backed
      carrier. *)
end

type t = Packed : (module S with type t = 'a) * 'a -> t
(** A transport with its backend hidden: protocol code holds this. *)

(** {1 Dispatch}

    Each function below forwards to the packed backend's implementation
    of the same name. *)

val name : t -> string
val ledger : t -> Network.t
val sites : t -> int
val cost_model : t -> Network.cost_model
val set_sink : t -> Wd_obs.Sink.t -> unit
val sink : t -> Wd_obs.Sink.t
val set_time : t -> int -> unit
val time : t -> int
val set_faults : t -> Faults.plan -> unit
val faults : t -> Faults.plan
val site_down : t -> site:int -> bool
val send_up : t -> site:int -> payload:int -> unit
val send_down : t -> site:int -> payload:int -> unit
val broadcast_down : t -> except:int option -> payload:int -> unit
val transmit_up : t -> site:int -> payload:int -> Faults.outcome
val transmit_down : t -> site:int -> payload:int -> Faults.outcome

val transmit_broadcast :
  t -> except:int option -> payload:int -> Faults.outcome array

val reliable_up :
  ?max_retries:int -> t -> site:int -> payload:int -> Network.delivery

val reliable_down :
  ?max_retries:int -> t -> site:int -> payload:int -> Network.delivery

val close : t -> unit
val wire_stats : t -> wire_stats option

(** {1 Building backends} *)

(** What a backend actually has to supply: its ledger plus the three
    hooks where backends differ.  {!Of_carrier} derives the rest of
    {!S} by delegating to the ledger. *)
module type CARRIER = sig
  type t

  val name : string
  val ledger : t -> Network.t

  val on_time : t -> int -> unit
  (** Called by [set_time] {e after} the ledger clock has advanced; the
      stream carrier detaches and reattaches crashed sites here. *)

  val close : t -> unit
  val wire_stats : t -> wire_stats option
end

module Of_carrier (C : CARRIER) : S with type t = C.t
