(** QS307: static validation of a [quicksand serve] configuration.

    The serve subsystem lives above this library in the dependency order
    (it needs [Qs_check]), so the rule operates on a dependency-free
    {!config_view} that [Qs_serve.Serve.Config.view] produces; the CLI
    lints its effective config at startup and [Serve.create] rejects an
    invalid one. *)

type config_view = {
  window : float;
  bucket : float;
  threshold : float;
  slack : float;
  capacity : int;
  chunk : int;
  monitored : (Prefix.t * Prefix.t) list;
      (** (client prefix, guard prefix) pairs the service watches *)
}

val max_buckets : int
(** 86 400: the most ring slots ([window / bucket]) a key may get — a
    day at one-second buckets. Every key whose path changes allocates
    one ring, so an unbounded ratio would ask for more memory than any
    host has. *)

(** {1 The config rules}

    Each returns [None] when its knobs are valid, else the problem as
    {!check} words it. {!check} reports them as QS307; [Window.create]
    and [Ingest.create] raise [Invalid_argument] on them, so a config no
    lint saw still cannot reach the ring or the queue. *)

val window_problem : window:float -> bucket:float -> string option
(** Both finite and positive, the window a whole multiple of the bucket,
    at most {!max_buckets} buckets. *)

val threshold_problem : window:float -> threshold:float -> string option
(** Finite and within (0, window]. *)

val slack_problem : float -> string option
(** Finite and non-negative. *)

val capacity_problem : int -> string option
(** Positive. *)

val serve_config_invalid : Diag.rule
(** [QS307-serve-config-invalid]. *)

val rules : Diag.rule list

val check : ?scenario:Scenario.t -> config_view -> Diag.t list
(** Structural checks always run (every float knob finite, window a
    positive multiple of bucket with at most {!max_buckets} slots,
    threshold within (0, window], slack
    non-negative, queue/chunk bounds);
    with a [scenario], monitored-pair prefixes must additionally be
    announced — and guard prefixes must host a Tor relay. *)
