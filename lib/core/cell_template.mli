(** Measurement keys and cells, and a world's time-0 cell template.

    §4 measures each (collector session, prefix) cell against its
    baseline, the route the session held at time 0. Time 0 depends only
    on the world ({!Dynamics.time0}), so everything a measurement derives
    from it alone is derived once per world and kept here: every time-0
    key with its index, its baseline AS set and per-prefix visibility
    counts, and the sealed cell of every key no update touches. Most keys
    are such keys: a month-density hour at Paper scale touches ~3k of
    ~116k cells. [Measurement] re-exports {!key}, {!cell} and
    {!Key_table}; this module sits below [Scenario] so a scenario can own
    the template. *)

type key = { session : Update.session_id; prefix : Prefix.t }

type cell = {
  key : key;
  baseline : Asn.Set.t option;
  updates : int;
  path_changes : int;
  residency : (Asn.t * float) list;
  contiguous : (Asn.t * float) list;
  final_set : Asn.Set.t option;
}
(** Documented as [Measurement.cell]. *)

module Key_table : Hashtbl.S with type key = key

val sealed_runs : Asn.Set.t -> float -> (Asn.t * float) list
(** [sealed_runs base h]: the residency, and the longest runs, of a cell
    that held [base] from time 0 to a seal at [h] — each AS of [base]
    with [h] when [h > 0.], else none. *)

val iter_baselines : Dynamics.initial -> (key -> Asn.Set.t -> unit) -> unit
(** Every time-0 route as its key and baseline AS set, session by
    session in {!Update.Session_map} order and prefix by prefix in
    {!Prefix.Map} order. Routes with one AS path get one shared set. *)

type t
(** A time-0 cell template: built from one {!Dynamics.initial} (its
    source), immutable but for the lazily built sealed cells. Keys are
    numbered [0 .. length - 1] in {!iter_baselines} order. It owns its
    key -> index table, which runs read and never write, so runs on
    several domains share it; at Paper scale (115 823 keys) the table is
    ~4 MB and stays as long as the scenario does. *)

type slot = t option Atomic.t
(** Where a scenario keeps its world's template ([Scenario.t]'s
    [cell_template]); empty until the first [delta] measurement run. *)

val empty_slot : unit -> slot

val for_run : share:bool -> slot -> Dynamics.initial -> t
(** The template a run over [initial] seeds from: the slot's own when
    [initial] is physically its source; otherwise a new one built from
    [initial], published to the slot by compare-and-set only when
    [share]. Tables equal in value but not in identity (the
    [delta = false] arm's) never match a source, so a run that passes
    [share:false] neither reads nor fills the slot. *)

val keys : t -> int Key_table.t
(** The time-0 keys and their indexes, added in index order to a table
    of the size [Measurement.run] has always used: the buckets of a
    table filled key by key. Read only: a run that must add a key adds
    it to a {!Key_table.copy}, which keeps each bucket's order, so a
    fold over the copy lists every key where a table filled key by key
    would. *)

val length : t -> int
(** Number of time-0 keys. *)

val baseline : t -> int -> Asn.Set.t

val visibility : t -> int Prefix.Table.t
(** A fresh copy of the per-prefix count of time-0 keys. *)

type sealed
(** The sealed cells of one horizon. *)

val sealed_at : t -> float -> sealed
(** The sealed cells at a horizon: the template's current set when its
    horizon is bit-identical, otherwise a new, empty set that replaces it
    (a template keeps the horizon last asked for). A run reads it once
    and keeps it, so runs at other horizons never change its cells. *)

val sealed_cell : t -> sealed -> key -> int -> cell
(** [sealed_cell t s key i]: the cell of time-0 key [key], numbered [i],
    when no update touched it, sealed at the set's horizon: its baseline
    as [baseline] and [final_set], no update, no change, {!sealed_runs}
    as residency and runs. Built on first request and shared by every
    later one. *)
