(** The process wall-clock shim.

    Every wall-clock read in the repository flows through {!now} — the
    hygiene gate ([tools/check_mli.sh]) bans direct [Unix.gettimeofday] /
    [Sys.time] outside [lib/obs/] — so tests can substitute a
    deterministic source and make every timing field reproducible (the
    golden-trace test freezes the clock at 0, which turns all span
    durations and pool busy/wait times into exact zeros). *)

val now : unit -> float
(** Seconds since the epoch, from the current source (default:
    [Unix.gettimeofday]). *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_source f g] runs [g] with [f] installed as the clock source and
    restores the previous source afterwards, whatever [g] does. *)
