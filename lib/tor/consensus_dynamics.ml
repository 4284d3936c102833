(* A living consensus: hourly epochs over a base snapshot, with per-relay
   departure hazards, Poisson relay arrivals placed on the same weighted
   candidate sites the base consensus used, and log-normal bandwidth-
   weight drift. Epoch 0 is the base snapshot verbatim; epoch i is derived
   from epoch i-1 by one round of departures, drift and arrivals, so the
   conservation law n(i) = n(i-1) + |joined(i)| - |departed(i)| holds by
   construction (and is qcheck-pinned in test_tor.ml).

   Storage: one shared roster of every relay ever listed, in arrival
   order, with the first epoch each slot is no longer listed in ([died]).
   Survivors keep their relative order and arrivals are appended, so an
   epoch's roster is exactly the slots alive at that epoch, in slot
   order. Each epoch keeps only its diff — arrivals, departures and its
   roster's bandwidths — and its [Consensus.t] is built on the first
   [at], then memoised.

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

(* Every comparison below is false on NaN, so finiteness is checked
   first. *)
let check_params p =
  let bad x = not (Float.is_finite x) in
  if bad p.epoch_seconds || p.epoch_seconds <= 0. then
    invalid_arg "Consensus_dynamics: epoch_seconds <= 0";
  if bad p.arrival_rate || p.arrival_rate < 0. then
    invalid_arg "Consensus_dynamics: arrival_rate < 0";
  if bad p.departure_hazard || p.departure_hazard < 0. || p.departure_hazard >= 1. then
    invalid_arg "Consensus_dynamics: departure_hazard outside [0, 1)";
  if bad p.bw_drift_sigma || p.bw_drift_sigma < 0. then
    invalid_arg "Consensus_dynamics: bw_drift_sigma < 0";
  if bad p.guard_fraction || p.guard_fraction < 0. || p.guard_fraction > 1. then
    invalid_arg "Consensus_dynamics: guard_fraction outside [0, 1]";
  if bad p.exit_fraction || p.exit_fraction < 0. || p.exit_fraction > 1. then
    invalid_arg "Consensus_dynamics: exit_fraction outside [0, 1]"

type epoch = {
  consensus : Consensus.t;
  joined : Relay.t list;
  departed : Relay.t list;
}

(* What one epoch changed: its arrivals, its departures (each carrying
   its bandwidth at departure) and its whole roster's bandwidths. *)
type diff = {
  arrivals : Relay.t list;
  departures : Relay.t list;
  bandwidths : int array;
}

type t = {
  params : params;
  roster : Relay.t array;  (* bandwidths as first listed *)
  died : int array;        (* [max_int] for a slot still listed at the end *)
  diffs : diff array;
  built : epoch option Atomic.t array;
}

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

let with_bandwidth (r : Relay.t) bandwidth =
  if r.Relay.bandwidth = bandwidth then r else { r with Relay.bandwidth }

(* [a] with room for index [n], padded with [fill]. *)
let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * n + 1) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

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
  (* The slot arrays grow by doubling; the first [n_slots] are in use and
     [n_alive] of those are listed (their [died] is still [max_int]). *)
  let roster = ref (Array.copy base.Consensus.relays) in
  let n_slots = ref (Array.length !roster) in
  let n_alive = ref !n_slots in
  let died = ref (Array.make !n_slots max_int) in
  let bw = ref (Array.map (fun (r : Relay.t) -> r.Relay.bandwidth) !roster) in
  let iter_alive f =
    for s = 0 to !n_slots - 1 do
      if !died.(s) = max_int then f s
    done
  in
  let snapshot () =
    let a = Array.make !n_alive 0 and k = ref 0 in
    iter_alive (fun s -> a.(!k) <- !bw.(s); incr k);
    a
  in
  let append (r : Relay.t) =
    let s = !n_slots in
    roster := grow !roster s r;
    died := grow !died s max_int;
    bw := grow !bw s 0;
    !roster.(s) <- r;
    !bw.(s) <- r.Relay.bandwidth;
    incr n_slots;
    incr n_alive
  in
  let diffs =
    Array.init n_epochs (fun i ->
        if i = 0 then { arrivals = []; departures = []; bandwidths = snapshot () }
        else begin
          (* departures: one uniform per listed relay, in roster order *)
          let departures = ref [] in
          iter_alive (fun s ->
              if Rng.float rng 1.0 < params.departure_hazard then begin
                !died.(s) <- i;
                decr n_alive;
                departures := with_bandwidth !roster.(s) !bw.(s) :: !departures
              end);
          (* drift: one normal per survivor, in roster order *)
          iter_alive (fun s ->
              let f = exp (Rng.normal rng ~mu:0. ~sigma:params.bw_drift_sigma) in
              !bw.(s) <- max 1 (int_of_float (float_of_int !bw.(s) *. f)));
          let arrivals = List.init (poisson rng params.arrival_rate) (fun _ -> new_relay ()) in
          List.iter append arrivals;
          let departures = List.rev !departures in
          Metrics.add Manifest.consensus_relays_joined (List.length arrivals);
          Metrics.add Manifest.consensus_relays_departed
            (List.length departures);
          { arrivals; departures; bandwidths = snapshot () }
        end)
  in
  Metrics.add Manifest.consensus_epochs n_epochs;
  { params;
    roster = Array.sub !roster 0 !n_slots;
    died = Array.sub !died 0 !n_slots;
    diffs;
    built = Array.init n_epochs (fun _ -> Atomic.make None) }

let n_epochs t = Array.length t.diffs

let valid_after t i = float_of_int i *. t.params.epoch_seconds

(* Epoch [i]'s roster: the slots alive at [i], in slot order, each with
   the bandwidth [i] recorded for it. Slots first listed after [i] come
   after every slot listed at [i], so the first [n] slots not yet dead at
   [i] are exactly its [n] relays. *)
let build t i =
  let d = t.diffs.(i) in
  let s = ref 0 in
  let rec next_alive () =
    let slot = !s in
    incr s;
    if i < t.died.(slot) then slot else next_alive ()
  in
  let relays =
    Array.init (Array.length d.bandwidths) (fun k ->
        with_bandwidth t.roster.(next_alive ()) d.bandwidths.(k))
  in
  { consensus = Consensus.make ~valid_after:(valid_after t i) relays;
    joined = d.arrivals;
    departed = d.departures }

(* Memoised by compare-and-set: pool tasks on several domains may ask for
   the same unbuilt epoch, and a lost race built an equal value, so every
   caller gets the winner's. *)
let at t i =
  if i < 0 || i >= Array.length t.diffs then
    invalid_arg "Consensus_dynamics.at: epoch out of range";
  let cell = t.built.(i) in
  match Atomic.get cell with
  | Some e -> e
  | None ->
      ignore (Atomic.compare_and_set cell None (Some (build t i)));
      Option.get (Atomic.get cell)

let epoch_of_time t time =
  if Float.is_nan time then
    invalid_arg "Consensus_dynamics.epoch_of_time: NaN time";
  let last = Array.length t.diffs - 1 in
  let e = Float.max 0. time /. t.params.epoch_seconds in
  if e >= float_of_int last then last else int_of_float e

let at_time t time = (at t (epoch_of_time t time)).consensus

let to_string t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i d ->
       Buffer.add_string buf
         (Printf.sprintf "epoch %d valid-after %.0f relays %d joined %d departed %d\n"
            i (valid_after t i) (Array.length d.bandwidths)
            (List.length d.arrivals) (List.length d.departures));
       let line sign (r : Relay.t) =
         Buffer.add_string buf
           (Printf.sprintf "%s %s %s %d %d %s\n" sign r.Relay.nickname
              (Ipv4.to_string r.Relay.ip)
              (Asn.to_int r.Relay.asn)
              r.Relay.bandwidth
              (String.concat "," (List.map Relay.flag_to_string r.Relay.flags)))
       in
       List.iter (line "+") d.arrivals;
       List.iter (line "-") d.departures)
    t.diffs;
  Buffer.contents buf
