(** Executing an expanded sweep matrix and rendering its results.

    Every cell builds its own scenario, runs the §4 measurement pipeline
    under the cell's dynamics, computes the F3L/F3R statistics (and the
    §3.1 compromise numbers when the cell declares an adversary), and
    renders three artifacts: a [qs-sweep/1] [summary.json], a [qs-obs/1]
    metrics export built from the cell's own deterministic counts, and
    the scenario fingerprint over the cell's canonical bindings.

    Determinism contract: every rendered byte depends only on the cell's
    {!Sweep.vars}. Cells run as tasks on the supplied pool with a
    submission-order reduction, intra-cell parallel stages run on inline
    [jobs = 1] pools, and no artifact embeds a timing or a worker count —
    so a matrix's results directory is byte-identical across reruns and
    across [--jobs] settings. The one exception forced by a global knob:
    a matrix containing an [obs = off] cell runs its cells sequentially,
    because {!Metrics.set_enabled} is process-wide (the outputs are
    unchanged, only the wall-clock is). *)

type headline = {
  updates : int;            (** post-emission update count of the run *)
  path_changes : int;       (** total path changes across cells *)
  f3l_cases : int;
  frac_above_one : float;
  f3r_cases : int;
  frac_at_least_2 : float;
  max_extras : int;
  compromise : (float * float) option;
      (** (static, dynamic) mean compromise probability, when the cell
          declares an adversary fraction > 0 *)
  m2_compromised : float option;
      (** M2 compromised-client fraction, when the cell's [consensus]
          key requests the long-term stage (anything but [frozen]) *)
}

type cell_result = {
  cell : Sweep.cell;
  slug : string;
  fingerprint : string;
  headline : headline;
  summary_json : string;     (** the cell's [summary.json] body *)
  metrics_json : string;     (** the cell's [qs-obs/1] export body *)
}

type t = {
  entry : Sweep.entry;
  results : cell_result list;  (** in row-major cell order *)
  index_json : string;         (** the matrix-level [index.json] body *)
}

val run : ?exec:Pool.t -> Sweep.entry -> t
(** Expand and run every cell.
    @raise Invalid_argument without running a cell if {!Sweep.validate}
    rejects the entry (QS308 keeps the builtin registry clean). *)

val write : dir:string -> t -> string list
(** Materialize the results directory:
    [dir/index.json], [dir/table.txt], and per cell
    [dir/<slug>/{summary.json,metrics.json,fingerprint}]. Creates
    directories as needed, overwrites existing files.
    @raise Sys_error if a directory or file cannot be created. Returns the paths
    written, in writing order. *)

val print_table : Format.formatter -> t -> unit
(** The per-cell summary table ([table.txt] and the CLI's text output). *)

val table_string : t -> string
