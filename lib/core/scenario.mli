(** A fully-instantiated measurement scenario: the synthetic Internet, its
    BGP table, the RIS-style collectors and the Tor network living on top.
    Every experiment in this library starts from one of these; equal seeds
    give bit-identical scenarios. *)

type size =
  | Paper  (** ~2 400 ASes, 4 586 relays — the §4 scale *)
  | Small  (** ~220 ASes, 230 relays — tests and examples *)

type t = {
  seed : int;
  size : size;
  graph : As_graph.t;
  indexed : As_graph.Indexed.t;
  addressing : Addressing.t;
  collectors : Collector.t list;
  consensus : Consensus.t;
  tor_prefixes : Tor_prefix.t;
  client_ases : Asn.t array;
      (** the {!random_client_as} candidates, built once: stub ASes that
          host no relay of [consensus] and originate a prefix, in
          ascending ASN ({!As_graph.ases}) order. Like [tor_prefixes],
          [world] and [indexed], it is derived from [graph], [addressing]
          and [consensus] by {!build}; a record update of those fields
          would leave it stale, so tools/check_mli.sh rejects one outside
          scenario.ml. Shared, never copied — do not mutate it. *)
  world : Dynamics.world;
  cell_template : Cell_template.slot;
      (** [world]'s time-0 cell template, empty until the first [delta]
          [Measurement.run] over this scenario fills it (see
          {!Cell_template.for_run}). It depends on [world] alone, so a
          seed-only record update shares it, as it shares [world]'s
          time-0 memo; tools/check_mli.sh rejects a record update of
          either field outside scenario.ml. *)
}

val build : seed:int -> size -> t

val sessions : t -> Collector.session list

val size_to_string : size -> string
(** ["paper"] or ["small"] — the spelling the CLI and the sweep registry
    use. *)

val fingerprint : ?exec:Pool.t -> ?params:(string * string) list -> t -> string
(** A digest over every externally-visible piece of the scenario —
    an identity section (seed, size, and the caller-supplied [params]
    bindings, canonically sorted and length-prefixed so binding order and
    adversarial key/value strings cannot alias), then topology, consensus,
    address plan and collector sessions. Two builds from the same seed and
    size (and equal [params]) must produce equal fingerprints; the [QS301]
    lint rule enforces exactly that. [params] is how a sweep cell bakes
    its process parameters (churn model, adversary, horizon) into its
    identity: any two cells whose results can diverge must fingerprint
    differently. The sections are rendered and digested as tasks on [exec]
    (default {!Pool.default}) and combined in a fixed order, so the digest
    is independent of the worker count — the [QS305] lint rule recomputes
    it at [jobs = 1] and [jobs = 2] and flags any disagreement. *)

val rng_for : t -> string -> Rng.t
(** A deterministic RNG stream for a named sub-experiment, independent of
    streams consumed while building the scenario. The stream is derived
    from an MD5 digest of the (seed, full name) pair, so distinct
    experiment names get independent streams — no [Hashtbl.hash]-style
    truncation through which two names (or two (seed, name) pairs) can
    collide onto one stream. *)

val stream_names : string list
(** Every stream name the codebase passes to {!rng_for}, sorted — the
    audit surface for stream independence. The qcheck property in
    test/test_core.ml derives all of them across random seeds and checks
    the seeds are pairwise distinct; a new generator's stream name
    belongs in this list. *)

val guard_announcement : t -> Relay.t -> Announcement.t option
(** The legitimate BGP announcement covering a relay: its Tor prefix with
    its true origin — what a hijacker must compete with. [None] if the
    relay's address is unrouted. *)

val random_client_as : rng:Rng.t -> t -> Asn.t
(** A stub AS that hosts no relays (a plausible client location): one
    uniform draw from [client_ases]. *)

val monitors : t -> Asn.t list
(** The collector peer ASes — where control-plane monitoring can look. *)
