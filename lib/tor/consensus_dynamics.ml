(* A living consensus: hourly epochs over a base snapshot, with per-relay
   departure hazards, Poisson relay arrivals placed on the same weighted
   candidate sites the base consensus used, and log-normal bandwidth-
   weight drift. Epoch 0 is the base snapshot verbatim; epoch i is derived
   from epoch i-1 by one round of departures, drift and arrivals, so the
   conservation law n(i) = n(i-1) + |joined(i)| - |departed(i)| holds by
   construction (and is qcheck-pinned in test_tor.ml).

   Determinism: one serial pass over epochs from a single caller-provided
   rng — a pure function of (rng, params, gen, base, n_epochs). *)

type params = {
  epoch_seconds : float;
  arrival_rate : float;
  departure_hazard : float;
  bw_drift_sigma : float;
  guard_fraction : float;
  exit_fraction : float;
}

let default_params =
  { epoch_seconds = 3600.;
    arrival_rate = 1.0;
    departure_hazard = 0.004;
    bw_drift_sigma = 0.02;
    guard_fraction = 0.4;
    exit_fraction = 0.2 }

let heavy_params =
  { default_params with
    arrival_rate = 3.0;
    departure_hazard = 0.015;
    bw_drift_sigma = 0.05 }

let check_params p =
  if p.epoch_seconds <= 0. then
    invalid_arg "Consensus_dynamics: epoch_seconds <= 0";
  if p.arrival_rate < 0. then invalid_arg "Consensus_dynamics: arrival_rate < 0";
  if p.departure_hazard < 0. || p.departure_hazard >= 1. then
    invalid_arg "Consensus_dynamics: departure_hazard outside [0, 1)";
  if p.bw_drift_sigma < 0. then
    invalid_arg "Consensus_dynamics: bw_drift_sigma < 0";
  if p.guard_fraction < 0. || p.guard_fraction > 1. then
    invalid_arg "Consensus_dynamics: guard_fraction outside [0, 1]";
  if p.exit_fraction < 0. || p.exit_fraction > 1. then
    invalid_arg "Consensus_dynamics: exit_fraction outside [0, 1]"

type epoch = {
  consensus : Consensus.t;
  joined : Relay.t list;
  departed : Relay.t list;
}

type t = {
  params : params;
  epochs : epoch array;
}

let m_epochs = Metrics.counter "consensus.epochs"
    ~help:"consensus epochs generated"
let m_joined = Metrics.counter "consensus.relays_joined"
    ~help:"relay arrivals across generated epochs"
let m_departed = Metrics.counter "consensus.relays_departed"
    ~help:"relay departures across generated epochs"

(* Knuth's product-of-uniforms Poisson sampler; our arrival rates are a
   handful per epoch, far from the exp(-lambda) underflow regime. *)
let poisson rng lambda =
  if lambda <= 0. then 0
  else begin
    let l = exp (-.lambda) in
    let rec go k p =
      let p = p *. Rng.float rng 1.0 in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.0
  end

let arrival_flags rng params =
  let guard = Rng.float rng 1.0 < params.guard_fraction in
  let exit = Rng.float rng 1.0 < params.exit_fraction in
  match (guard, exit) with
  | true, true -> [ Relay.Guard; Relay.Exit; Relay.Fast; Relay.Stable ]
  | true, false -> [ Relay.Guard; Relay.Fast; Relay.Stable ]
  | false, true -> [ Relay.Exit; Relay.Fast ]
  | false, false -> [ Relay.Fast ]

let generate ~rng ?(params = default_params) ~gen ~n_epochs g addressing base =
  check_params params;
  if n_epochs <= 0 then invalid_arg "Consensus_dynamics.generate: n_epochs <= 0";
  let sites = Consensus.candidate_sites ~rng ~params:gen g addressing in
  let used_ips = Hashtbl.create (Consensus.n_relays base * 2) in
  Array.iter
    (fun (r : Relay.t) -> Hashtbl.replace used_ips (Ipv4.to_int r.Relay.ip) ())
    base.Consensus.relays;
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
  (* Nickname numbering continues past the base roster so an arrival never
     shadows a (possibly departed-and-grepped-for) base relay. *)
  let next_nick = ref (Consensus.n_relays base) in
  let new_relay () =
    let asn = Consensus.pick_site ~rng sites in
    let ip = fresh_ip asn in
    let bandwidth = Consensus.sample_bandwidth ~rng gen in
    let flags = arrival_flags rng params in
    let nickname = Printf.sprintf "relay%04d" !next_nick in
    incr next_nick;
    Relay.make ~nickname ~ip ~asn ~bandwidth ~flags
  in
  let current = ref (Array.to_list base.Consensus.relays) in
  let epochs =
    Array.init n_epochs (fun i ->
        if i = 0 then
          { consensus = Consensus.make ~valid_after:0. base.Consensus.relays;
            joined = [];
            departed = [] }
        else begin
          let stay, departed =
            List.partition
              (fun _ -> Rng.float rng 1.0 >= params.departure_hazard)
              !current
          in
          let stay =
            List.map
              (fun (r : Relay.t) ->
                 let f = exp (Rng.normal rng ~mu:0. ~sigma:params.bw_drift_sigma) in
                 { r with
                   Relay.bandwidth =
                     max 1 (int_of_float (float_of_int r.Relay.bandwidth *. f)) })
              stay
          in
          let joined = List.init (poisson rng params.arrival_rate) (fun _ -> new_relay ()) in
          current := stay @ joined;
          Metrics.add m_joined (List.length joined);
          Metrics.add m_departed (List.length departed);
          { consensus =
              Consensus.make
                ~valid_after:(float_of_int i *. params.epoch_seconds)
                (Array.of_list !current);
            joined;
            departed }
        end)
  in
  Metrics.add m_epochs n_epochs;
  { params; epochs }

let n_epochs t = Array.length t.epochs

let at t i =
  if i < 0 || i >= Array.length t.epochs then
    invalid_arg "Consensus_dynamics.at: epoch out of range";
  t.epochs.(i)

let epoch_of_time t time =
  let i = int_of_float (Float.max 0. time /. t.params.epoch_seconds) in
  min i (Array.length t.epochs - 1)

let at_time t time = t.epochs.(epoch_of_time t time).consensus

let to_string t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i e ->
       Buffer.add_string buf
         (Printf.sprintf "epoch %d valid-after %.0f relays %d joined %d departed %d\n"
            i e.consensus.Consensus.valid_after
            (Consensus.n_relays e.consensus)
            (List.length e.joined) (List.length e.departed));
       let line sign (r : Relay.t) =
         Buffer.add_string buf
           (Printf.sprintf "%s %s %s %d %d %s\n" sign r.Relay.nickname
              (Ipv4.to_string r.Relay.ip)
              (Asn.to_int r.Relay.asn)
              r.Relay.bandwidth
              (String.concat "," (List.map Relay.flag_to_string r.Relay.flags)))
       in
       List.iter (line "+") e.joined;
       List.iter (line "-") e.departed)
    t.epochs;
  Buffer.contents buf
