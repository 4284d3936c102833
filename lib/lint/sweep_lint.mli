(** QS308: static validation of the sweep scenario registry.

    Registry entries are typed data ({!Sweep.entry}), so what can still
    make a [quicksand sweep] run wrong — a duplicate entry name, an empty
    axis, two cells collapsing onto one identity — is detectable without
    building a single scenario. The rule simply lifts
    {!Sweep.validate_registry}'s findings into diagnostics. *)

val sweep_entry_invalid : Diag.rule
(** [QS308-sweep-entry-invalid]. *)

val rules : Diag.rule list

val check : ?registry:Sweep.entry list -> unit -> Diag.t list
(** Validate [registry] (default {!Sweep.builtin}): one [Error]
    diagnostic per {!Sweep.invalid} finding, carrying the entry name,
    the problem slug and the finding's structured detail as context. *)
