(** Execute {!Spec} cells and aggregate them into {!Artifact} records.

    Every cell runs [reps] seeded repetitions (seeds [base_seed],
    [base_seed + 1], ...); workloads, sketch families and fault plans are
    all rebuilt per repetition, so a grid is a pure function of its
    configuration — re-running with the same config reproduces the
    artifact bit for bit (modulo [wall_s]). *)

type config = {
  reps : int;  (** repetitions per cell (>= 5 for the acceptance test) *)
  base_seed : int;
  significance : float;  (** binomial-test rejection level *)
  handicap : float;
      (** injected-estimator-bug dial, 1.0 = honest.  [h] scales DC/window
          sketch accuracy by [sqrt h] (equivalent to cutting FM
          repetitions [h]-fold) and inflates the DS count lag [h^2]-fold
          while acceptance still judges against the honest budget —
          regression-detection tests run with [h > 1] and expect the grid
          to fail. *)
  ds_threshold : int;  (** distinct-sample size bound T *)
  socket_dir : string;  (** where socket cells place their transient paths *)
  progress : (string -> unit) option;  (** per-cell progress lines *)
  metrics : Wd_obs.Metrics.t option;
      (** receives [wd_eval_cells_total], [wd_eval_cells_failed],
          [wd_eval_reps_total] counters and a [wd_eval_cell_wall_ms]
          histogram *)
}

val default_config : config
(** 5 reps, seed 42, significance 0.005, honest, T = 400, sockets in the
    system temp dir, silent, no metrics. *)

val run_cell : config -> Spec.cell -> Artifact.cell_result
(** Raises [Failure] on malformed fault specs and on socket or tcp cells
    for protocol families without a wire backend (HH, windows, YZ). *)

val run_grid : ?name:string -> config -> Spec.cell list -> Artifact.t
