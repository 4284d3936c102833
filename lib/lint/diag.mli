(** Lint diagnostics: stable rule codes, severities, reporters and the
    exit-code policy shared by [quicksand lint] and the test suite.

    A {e rule} is a statically-registered invariant with a stable code
    (["QS001"]) and slug (["valley-violation"]); a {e diagnostic} is one
    violation of a rule, carrying a human-readable message plus structured
    context (key/value pairs) that the JSON reporter emits
    machine-readably. Rule codes are append-only: once shipped, a code
    never changes meaning, so downstream tooling can filter on them. *)

type severity = Info | Warn | Error

val severity_to_string : severity -> string

type rule = {
  code : string;      (** stable identifier, e.g. ["QS001"] *)
  slug : string;      (** human-readable slug, e.g. ["valley-violation"] *)
  severity : severity; (** severity of every finding of this rule *)
  doc : string;       (** one-line description, shown by [--list-rules] *)
  explain : string;
      (** one-paragraph rationale — what invariant the rule guards, why a
          finding is a bug, and what typically causes one; shown by
          [quicksand lint --explain CODE] *)
}

val matches_rule : rule -> string -> bool
(** Whether a user-supplied selector designates this rule: its code, its
    slug, or the combined id (["QS001-valley-violation"]),
    case-insensitive. *)

type t = {
  rule : rule;
  message : string;
  context : (string * string) list;
}

val make : rule -> ?context:(string * string) list -> string -> t

val msgf :
  rule -> ?context:(string * string) list ->
  ('a, Format.formatter, unit, t) format4 -> 'a
(** [msgf rule ~context fmt ...] formats the message inline. *)

val count : severity -> t list -> int
val errors : t list -> int

val pp : Format.formatter -> t -> unit
(** One-line text rendering:
    [QS001 valley-violation error: message (k=v, k=v)]. *)

val report_text : Format.formatter -> t list -> unit
(** Every diagnostic on its own line, then a one-line count summary. *)

val report_json : Format.formatter -> t list -> unit
(** A JSON array of [{code, slug, severity, message, context}] objects;
    [context] is an object with string values. No external JSON library is
    used — the encoder escapes per RFC 8259. *)

val exit_code : fail_on:severity -> t list -> int
(** [0] if no diagnostic reaches severity [fail_on], [1] otherwise —
    the exit-code policy of [quicksand lint]. *)
