(** The serve subsystem's subscription-channel payload: one variant per
    thing a subscriber can learn from the live stream.

    Rendering is pure and byte-stable: two runs that compute the same
    events render the same JSON, whatever the worker count — that is the
    [--jobs] byte-identity contract of [quicksand serve], enforced by
    [test/test_serve.ml]. *)

type t =
  | Path_change of {
      key : Measurement.key;
      time : float;
      total : int;       (** lifetime path changes for the key *)
      in_window : int;   (** path changes inside the sliding window *)
    }
  | Extra_as of {
      key : Measurement.key;
      time : float;  (** the moment the threshold was first satisfied *)
      asn : Asn.t;
      run : float;   (** contiguous on-path seconds at emission *)
    }  (** a non-baseline AS crossed the contiguous-residency threshold
          (the paper's 5-minute rule) on a watched pair *)
  | Evicted of {
      key : Measurement.key;
      time : float;
      cell : Measurement.cell option;
          (** the key's sealed statistics for the evicted life; [None]
              for a withdraw-only life (nothing measurable) *)
    }  (** the window reclaimed a dead key (route withdrawn, idle for a
          full window) — the bounded-memory guarantee in action *)
  | Alert of Alert.t
  | Violation of { invariant : string; message : string }
      (** the conformance observer riding the stream found an invariant
          break — always a bug somewhere upstream *)

val time : t -> float option
(** Event time ([None] for violations, which are end-of-stream). *)

val to_json : t -> string
(** One JSON object, no trailing newline. Pure; safe to render on pool
    workers. *)
