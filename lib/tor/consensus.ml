type t = {
  relays : Relay.t array;
  valid_after : float;
  guard_pool : Relay.t array;
  guard_weights : float array;
  exit_pool : Relay.t array;
  exit_weights : float array;
}

(* Filled in place: an [Array.map] would box every float on its way in. *)
let weights pool =
  let w = Array.create_float (Array.length pool) in
  Array.iteri (fun i (r : Relay.t) -> w.(i) <- float_of_int r.Relay.bandwidth) pool;
  w

(* One backwards pass over the roster conses both pools in roster order:
   every consensus pays for this once, a living-consensus epoch when it is
   first asked for, and each extra pass re-reads every relay record. *)
let make ~valid_after relays =
  let guards = ref [] and exits = ref [] in
  for i = Array.length relays - 1 downto 0 do
    let r = relays.(i) in
    if Relay.is_guard r then guards := r :: !guards;
    if Relay.is_exit r then exits := r :: !exits
  done;
  let guard_pool = Array.of_list !guards and exit_pool = Array.of_list !exits in
  { relays; valid_after;
    guard_pool; guard_weights = weights guard_pool;
    exit_pool; exit_weights = weights exit_pool }

type gen_params = {
  n_relays : int;
  n_guards : int;
  n_exits : int;
  n_guard_exits : int;
  eligible_stub_fraction : float;
  stub_weight : float;
  bandwidth_alpha : float;
  bandwidth_min : int;
}

let paper_params =
  { n_relays = 4586;
    n_guards = 1918;
    n_exits = 891;
    n_guard_exits = 442;
    eligible_stub_fraction = 0.33;
    stub_weight = 0.42;
    bandwidth_alpha = 1.3;
    bandwidth_min = 20 }

let small_params =
  { n_relays = 230;
    n_guards = 96;
    n_exits = 45;
    n_guard_exits = 22;
    eligible_stub_fraction = 0.28;
    stub_weight = 0.35;
    bandwidth_alpha = 1.3;
    bandwidth_min = 20 }

let check p =
  if p.n_relays <= 0 then invalid_arg "Consensus.generate: n_relays <= 0";
  if p.n_guard_exits > min p.n_guards p.n_exits then
    invalid_arg "Consensus.generate: n_guard_exits exceeds guard or exit count";
  if p.n_guards + p.n_exits - p.n_guard_exits > p.n_relays then
    invalid_arg "Consensus.generate: more flagged relays than relays"

type sites = {
  site_ases : (Asn.t * float) array;
  site_weights : float array;
}

(* Candidate hosting locations: hosting ASes with their weight, plus an
   eligible subset of plain stubs (most ASes host no relay at all).
   Shared with [Consensus_dynamics], which places arriving relays on the
   same weighted site distribution the base consensus used. *)
let candidate_sites ~rng ?(params = paper_params) g addressing =
  let hosting = Topo_gen.hosting_ases g in
  let plain_stubs =
    As_graph.ases g
    |> List.filter (fun a ->
        let i = As_graph.info g a in
        (match i.As_graph.tier with As_graph.Stub -> true | _ -> false)
        && i.As_graph.hosting_weight = 0.
        && Addressing.prefixes_of addressing a <> [])
    |> Array.of_list
  in
  let n_eligible =
    int_of_float (params.eligible_stub_fraction *. float_of_int (Array.length plain_stubs))
  in
  let eligible = Rng.sample_without_replacement rng n_eligible plain_stubs in
  let site_ases =
    Array.of_list
      (List.map (fun (a, w) -> (a, w)) hosting
       @ List.map (fun a -> (a, params.stub_weight)) eligible)
  in
  if Array.length site_ases = 0 then
    invalid_arg "Consensus.candidate_sites: no AS can host relays";
  { site_ases; site_weights = Array.map snd site_ases }

let pick_site ~rng sites = fst sites.site_ases.(Rng.weighted_index rng sites.site_weights)

let sample_bandwidth ~rng params =
  max params.bandwidth_min
    (int_of_float
       (Rng.pareto rng ~alpha:params.bandwidth_alpha
          ~xmin:(float_of_int params.bandwidth_min)
        *. 10.))

let generate ~rng ?(params = paper_params) g addressing =
  check params;
  let sites = candidate_sites ~rng ~params g addressing in
  (* Assign flags by shuffling indices: the first [n_guard_exits] are
     Guard+Exit, then guard-only, then exit-only. *)
  let order = Array.init params.n_relays (fun i -> i) in
  Rng.shuffle rng order;
  let flags_of = Array.make params.n_relays [ Relay.Fast ] in
  Array.iteri
    (fun rank idx ->
       let fl =
         if rank < params.n_guard_exits then
           [ Relay.Guard; Relay.Exit; Relay.Fast; Relay.Stable ]
         else if rank < params.n_guards then [ Relay.Guard; Relay.Fast; Relay.Stable ]
         else if rank < params.n_guards + (params.n_exits - params.n_guard_exits) then
           [ Relay.Exit; Relay.Fast ]
         else [ Relay.Fast ]
       in
       flags_of.(idx) <- fl)
    order;
  let used_ips = Hashtbl.create params.n_relays in
  let fresh_ip asn =
    let rec try_ip attempts =
      let ip = Addressing.address_in ~rng addressing asn in
      if Hashtbl.mem used_ips (Ipv4.to_int ip) && attempts < 50 then
        try_ip (attempts + 1)
      else ip
    in
    let ip = try_ip 0 in
    Hashtbl.replace used_ips (Ipv4.to_int ip) ();
    ip
  in
  let relays =
    Array.init params.n_relays
      (fun i ->
         let asn = pick_site ~rng sites in
         let ip = fresh_ip asn in
         let bandwidth = sample_bandwidth ~rng params in
         Relay.make
           ~nickname:(Printf.sprintf "relay%04d" i)
           ~ip ~asn ~bandwidth ~flags:flags_of.(i))
  in
  make ~valid_after:0. relays

let guards t = Array.to_list t.guard_pool
let exits t = Array.to_list t.exit_pool

let guard_or_exit t =
  Array.to_list t.relays |> List.filter (fun r -> Relay.is_guard r || Relay.is_exit r)

let n_relays t = Array.length t.relays

let relays_in t asn =
  Array.to_list t.relays |> List.filter (fun r -> Asn.equal r.Relay.asn asn)

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "valid-after %.0f\n" t.valid_after);
  Array.iter
    (fun r ->
       Buffer.add_string buf
         (Printf.sprintf "r %s %s %d %d %s\n" r.Relay.nickname
            (Ipv4.to_string r.Relay.ip)
            (Asn.to_int r.Relay.asn)
            r.Relay.bandwidth
            (String.concat "," (List.map Relay.flag_to_string r.Relay.flags))))
    t.relays;
  Buffer.contents buf

let of_string s =
  let valid_after = ref 0. in
  let relays = ref [] in
  let parse_line line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> ()
    | [ "valid-after"; v ] -> begin
        match float_of_string_opt v with
        | Some v -> valid_after := v
        | None -> invalid_arg "Consensus.of_string: bad valid-after"
      end
    | [ "r"; nickname; ip; asn; bw; flags ] -> begin
        match
          ( Ipv4.of_string_opt ip,
            int_of_string_opt asn,
            int_of_string_opt bw )
        with
        | Some ip, Some asn, Some bandwidth ->
            let flags =
              String.split_on_char ',' flags
              |> List.filter_map Relay.flag_of_string
            in
            relays :=
              Relay.make ~nickname ~ip ~asn:(Asn.of_int asn) ~bandwidth ~flags
              :: !relays
        | _ -> invalid_arg "Consensus.of_string: bad relay line"
      end
    | _ -> invalid_arg (Printf.sprintf "Consensus.of_string: bad line %S" line)
  in
  List.iter parse_line (String.split_on_char '\n' s);
  make ~valid_after:!valid_after (Array.of_list (List.rev !relays))
