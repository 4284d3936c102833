(** The scenario registry behind [quicksand sweep].

    The paper's headline numbers are sweeps — exposure and compromise
    probability across topology, churn, adversary and guard-selection
    axes — and every point of such a sweep is a {e cell}: a fully-bound
    set of {!vars} naming one seeded scenario plus the process parameters
    of one measurement over it. A registry {!entry} declares a family of
    cells as typed OCaml data: the entry's {!vars} (usually another
    entry's, updated in a few fields) plus a matrix of typed axis values,
    so "one more ablation" is one more record, and a misspelled key or an
    unknown churn model does not compile.

    Everything here is static and deterministic: entries validate without
    building a single scenario ({!validate} is what the QS308 lint rule
    runs), matrices expand in a canonical row-major order, and a cell's
    identity is the scenario fingerprint over its canonical bindings —
    two cells that can diverge never share an identity, and two runs of
    one cell always do. *)

(** {1 Cell variables} *)

type churn =
  | Calm      (** quarter of the baseline churn rate, half the resets *)
  | Baseline  (** the size's stock dynamics configuration *)
  | Heavy     (** the churn-heavy day of the [ab-delta] entry *)
  | Trace_pareto
      (** baseline plus trace-shaped session churn with Pareto up/down
          laws ({!Churn.pareto_day}) on the dedicated trace stream *)
  | Trace_lognormal
      (** as {!Trace_pareto} with log-normal laws
          ({!Churn.lognormal_day}) *)

(** Which consensus the M2 long-term stage of a cell runs against.
    [Frozen] skips the M2 stage entirely (the pre-existing behaviour);
    the other three run {!Long_term} — on the frozen snapshot or on a
    living {!Consensus_dynamics} epoch sequence. *)
type consensus =
  | Frozen      (** no M2 stage *)
  | Frozen_m2   (** M2 against the scenario's frozen snapshot *)
  | Live_hourly (** M2 under hourly epochs, default hazards *)
  | Live_heavy  (** M2 under hourly epochs, heavy arrival/departure *)

type guards =
  | No_guards  (** a fresh entry relay every day — pre-guard Tor *)
  | Guards of { n : int; rotation_days : int }
      (** [n] guards rotated every [rotation_days]; [max_int] = never *)

type vars = {
  size : Scenario.size;
  seed : int;
  days : float;       (** simulated measurement duration *)
  churn : churn;
  consensus : consensus;
  delta : bool;       (** incremental delta repair; off = full recompute *)
  obs : bool;         (** Qs_obs instrumentation during the cell *)
  adversary : float;  (** fraction f of malicious ASes; 0 = no adversary *)
  guards : guards;
  threshold : float;  (** F3R contiguous-residency threshold, seconds *)
}

val default_vars : vars
(** Small scenario, seed 1, one simulated day, baseline churn, frozen
    consensus (no M2 stage), delta repair on,
    instrumentation on, no adversary, 3 guards / 30 days, the paper's
    300 s exposure threshold. *)

val known_keys : (string * string) list
(** Every key of {!vars} with a one-line description of its values, as
    [sweep --list] prints it; the axis constructors below use the same
    key names. *)

val churn_to_string : churn -> string
val consensus_to_string : consensus -> string
val guards_to_string : guards -> string

val canonical_bindings : vars -> (string * string) list
(** The full variable set rendered canonically (every key, sorted, values
    normalized) — the [params] section {!Scenario.fingerprint} digests
    into the cell identity, and the duplicate-cell test of {!validate}.
    Seed and size are deliberately absent: the fingerprint's identity
    section already carries them. *)

val identity : vars -> string
(** Canonical one-line rendering of the {e complete} cell identity
    (seed and size included) — equal strings iff the cells would
    fingerprint identically. *)

val dynamics : vars -> Dynamics.config
(** The dynamics configuration a cell runs: the size's stock config with
    the duration, churn preset and delta switch applied. *)

(** {1 Registry entries} *)

type axis = private {
  key : string;
  points : (string * (vars -> vars)) list;
      (** per value: its binding label and the update it makes *)
}
(** One matrix axis: a key and the values it ranges over. Build axes with
    the constructors below; each takes the label of a value from the
    printer of its type ([%g] for floats, [on]/[off] for switches), so
    labels, slugs and fingerprints share one spelling. *)

val size : Scenario.size list -> axis
val seed : int list -> axis
val days : float list -> axis
val churn : churn list -> axis
val consensus : consensus list -> axis
val delta : bool list -> axis
val obs : bool list -> axis
val adversary : float list -> axis
val guards : guards list -> axis
val threshold : float list -> axis

type entry = {
  name : string;
  doc : string;
  vars : vars;      (** every cell's variables before its axis values *)
  axes : axis list;
      (** the matrix: cells are the cartesian product of the axes,
          expanded row-major with the last axis fastest *)
}

val builtin : entry list
(** The shipped registry: the ported AB-delta/AB-obs ablations,
    the paper's exposure matrix, the trace-churn day, the M2
    frozen-vs-living consensus pair, and the tiny CI matrix. *)

val find : entry list -> string -> entry option

(** {1 Expansion and validation} *)

type cell = {
  index : int;                       (** position in row-major order *)
  bindings : (string * string) list; (** this cell's axis bindings *)
  vars : vars;                       (** fully-resolved variables *)
}

val cells : entry -> cell list
(** Expand the entry's matrix into bound cells: each axis combination
    applied, in axis order, over the entry's {!vars}. An entry with no
    axes has one cell; one with an empty axis has none. *)

type invalid = {
  entry : string;                  (** offending entry name *)
  problem : string;
      (** stable slug: ["duplicate-entry"], ["empty-axis"] or
          ["duplicate-cell"] *)
  detail : (string * string) list; (** structured context for reporters *)
  message : string;                (** human-readable description *)
}

val validate : entry -> invalid list
(** The problems types cannot rule out: an empty axis, and two cells of
    the expanded matrix with one identity. Empty = every cell runs and
    no two are the same run. *)

val validate_registry : entry list -> invalid list
(** {!validate} over every entry, plus duplicate-name detection — what
    the QS308 lint rule reports on. *)

val slug : cell -> string
(** The cell's results-directory name: ["cell-007-seed=2,churn=heavy"] —
    index plus sanitized bindings, unique within an entry and stable
    across runs and worker counts. *)
