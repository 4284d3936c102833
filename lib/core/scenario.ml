type size = Paper | Small

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
  world : Dynamics.world;
  cell_template : Cell_template.slot;
}

(* Stub ASes that host no relay and originate a prefix, in id order —
   which is ascending ASN order, the order [As_graph.ases] lists. *)
let client_candidates indexed addressing (consensus : Consensus.t) =
  let module I = As_graph.Indexed in
  let hosts_relay = Array.make (I.n indexed) false in
  Array.iter
    (fun (r : Relay.t) ->
       match I.id_of_asn indexed r.Relay.asn with
       | i -> hosts_relay.(i) <- true
       | exception Not_found -> ())
    consensus.Consensus.relays;
  let is_client i =
    (match I.tier indexed i with
     | As_graph.Stub -> true
     | As_graph.Tier1 | As_graph.Transit -> false)
    && (not hosts_relay.(i))
    && Addressing.originates addressing (I.asn_of_id indexed i)
  in
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if is_client i then I.asn_of_id indexed i :: acc else acc)
  in
  Array.of_list (collect (I.n indexed - 1) [])

let build ~seed size =
  Span.with_ ~name:"scenario.build" @@ fun () ->
  Metrics.incr Manifest.scenario_builds;
  let rng = Rng.of_int seed in
  let topo_rng = Rng.split rng in
  let addr_rng = Rng.split rng in
  let coll_rng = Rng.split rng in
  let cons_rng = Rng.split rng in
  let topo_params, cons_params, sessions_per_collector =
    match size with
    | Paper -> (Topo_gen.default_params, Consensus.paper_params, 18)
    | Small -> (Topo_gen.small_params, Consensus.small_params, 5)
  in
  let graph = Topo_gen.generate ~rng:topo_rng topo_params in
  let addressing = Addressing.allocate ~rng:addr_rng graph in
  let collectors =
    Collector.standard_setup ~rng:coll_rng ~sessions_per_collector graph addressing
  in
  let consensus = Consensus.generate ~rng:cons_rng ~params:cons_params graph addressing in
  let tor_prefixes = Tor_prefix.compute addressing consensus in
  let world = Dynamics.make_world graph addressing collectors in
  let indexed = world.Dynamics.indexed in
  { seed; size; graph; indexed; addressing; collectors; consensus;
    tor_prefixes; client_ases = client_candidates indexed addressing consensus;
    world; cell_template = Cell_template.empty_slot () }

let sessions t = Collector.all_sessions t.collectors

let size_to_string = function Paper -> "paper" | Small -> "small"

(* The canonical identity section: seed, size, and whatever process
   parameters the caller layers on top (churn model, adversary fraction,
   horizon — anything that can make two runs over this scenario diverge).
   Length-prefixed fields make the rendering injection-proof — no choice
   of key/value strings can collide with another binding list — and keys
   are sorted so binding order never matters. *)
let params_section ?(params = []) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "qs-params/1\n";
  Buffer.add_string buf (Printf.sprintf "seed %d\n" t.seed);
  Buffer.add_string buf (Printf.sprintf "size %s\n" (size_to_string t.size));
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) params
  |> List.iter (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s=%d:%s\n" (String.length k) k (String.length v)
           v));
  Buffer.contents buf

(* The content sections of a scenario, each rendered to a canonical
   string: graph, consensus, addressing and sessions. Kept as thunks so
   [fingerprint] can render and digest them as pool tasks — each thunk
   only reads the (frozen) scenario. *)
let content_sections t : (unit -> string) array =
  [| (fun () -> As_graph.to_caida_string t.graph);
     (fun () -> Consensus.to_string t.consensus);
     (fun () ->
        let buf = Buffer.create (1 lsl 12) in
        List.iter
          (fun (p, o) ->
             Buffer.add_string buf (Prefix.to_string p);
             Buffer.add_char buf ' ';
             Buffer.add_string buf (Asn.to_string o);
             Buffer.add_char buf '\n')
          (Addressing.announced t.addressing);
        Buffer.contents buf);
     (fun () ->
        let buf = Buffer.create (1 lsl 10) in
        List.iter
          (fun (s : Collector.session) ->
             Buffer.add_string buf s.Collector.id.Update.collector;
             Buffer.add_char buf ' ';
             Buffer.add_string buf (Asn.to_string s.Collector.id.Update.peer);
             Buffer.add_char buf ' ';
             Buffer.add_string buf (Ipv4.to_string s.Collector.peer_ip);
             Buffer.add_char buf ' ';
             Buffer.add_string buf
               (match s.Collector.feed with
                | Collector.Full -> "full"
                | Collector.Customer_and_peer -> "customer+peer"
                | Collector.Customer_only -> "customer");
             Buffer.add_char buf '\n')
          (sessions t);
        Buffer.contents buf) |]

let fingerprint ?exec ?params t =
  let pool = match exec with Some p -> p | None -> Pool.default () in
  (* The identity section comes first: two cells over the same built world
     that can still diverge (different seeds recorded, different process
     parameters) must fingerprint differently. *)
  let sections =
    Array.append
      [| (fun () -> params_section ?params t) |]
      (content_sections t)
  in
  let section_digests =
    Pool.map pool
      (fun render -> Digest.to_hex (Digest.string (render ())))
      sections
  in
  Digest.to_hex
    (Digest.string (String.concat "+" (Array.to_list section_digests)))

let rng_for t name =
  (* Derive a stream from the seed and the experiment name only, so that
     running experiments in any order gives identical results. The name
     enters through an MD5 digest, never [Hashtbl.hash]: the hash's 30-bit
     range made cross-(seed, name) stream collisions constructible (see
     the regression in test/test_core.ml), and colliding names would feed
     two supposedly independent experiments the same randomness. The
     decimal seed before the first ':' keeps (seed, name) pairs apart even
     when names contain ':'. *)
  let d = Digest.string (Printf.sprintf "qs-rng/1:%d:%s" t.seed name) in
  Rng.create (String.get_int64_le d 0)

(* Every stream name the codebase derives via [rng_for], in one place so
   collisions are auditable: the qcheck property in test/test_core.ml
   checks all pairs derive distinct seeds (and any new generator's name
   belongs in this list). Sorted, duplicates would be a bug. *)
let stream_names =
  [ "ab-loss"; "ab-radius"; "asymmetric"; "asymmetry"; "check-static";
    "compromise"; "consensus-epochs"; "guard-inference"; "guard-monitoring";
    "hijack"; "hijack-detect"; "interception"; "interception-path";
    "long-term"; "measurement"; "monitoring"; "mrt-dump"; "mrt-roundtrip";
    "quickstart"; "reset-truth"; "rov"; "selection"; "serve"; "stealth";
    "surface"; "sweep-m2"; "trace-churn"; "wikileaks" ]

let guard_announcement t relay =
  match Tor_prefix.prefix_of_relay t.tor_prefixes relay with
  | Some (prefix, origin) -> Some (Announcement.originate origin prefix)
  | None -> begin
      match Addressing.covering_prefix t.addressing relay.Relay.ip with
      | Some (prefix, origin) -> Some (Announcement.originate origin prefix)
      | None -> None
    end

let random_client_as ~rng t = Rng.pick rng t.client_ases

let monitors t =
  sessions t |> List.map (fun s -> s.Collector.id.Update.peer)
  |> List.sort_uniq Asn.compare
