(** Wall-clock nanoseconds since the Unix epoch, monotone-clamped.

    The clock behind span timing ({!Wd_obs.Span}): [Unix.gettimeofday]
    widened to nanoseconds (microsecond-granular — sub-microsecond
    operations read as 0 or one tick) and clamped monotone non-decreasing
    within the process, so durations never go negative across wall-clock
    steps.  Processes on one host share the clock source, which is what
    makes cross-process round-trip latencies over the stream carrier
    meaningful. *)

val ns : unit -> int64
