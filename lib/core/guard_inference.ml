type config = {
  n_candidates : int;
  signal : float;
  noise_sigma : float;
  probes : int;
}

let default_config =
  { n_candidates = 12; signal = 0.4; noise_sigma = 0.25; probes = 3 }

type result = {
  inferred : Relay.t option;
  correct : bool;
  true_guard_probed : bool;
}

let candidates config consensus =
  Consensus.guards consensus
  |> List.sort (fun (a : Relay.t) b -> Int.compare b.Relay.bandwidth a.Relay.bandwidth)
  |> List.filteri (fun i _ -> i < config.n_candidates)

let infer ~rng ?(config = default_config) consensus ~true_guard =
  let cands = candidates config consensus in
  let true_guard_probed = List.exists (Relay.equal true_guard) cands in
  let score g =
    let base = if Relay.equal g true_guard then config.signal else 0. in
    let rec probe k acc =
      if k = 0 then acc /. float_of_int config.probes
      else
        probe (k - 1)
          (acc +. base +. Rng.normal rng ~mu:0. ~sigma:config.noise_sigma)
    in
    probe config.probes 0.
  in
  let inferred =
    List.fold_left
      (fun best g ->
         let s = score g in
         match best with
         | Some (_, bs) when bs >= s -> best
         | _ -> Some (g, s))
      None cands
    |> Option.map fst
  in
  { inferred;
    correct =
      (match inferred with
       | Some g -> Relay.equal g true_guard
       | None -> false);
    true_guard_probed }

let success_rate ~rng ?(config = default_config) ?(trials = 200) consensus =
  let hits = ref 0 in
  for _ = 1 to trials do
    let true_guard = Path_selection.pick_guard ~rng consensus in
    if (infer ~rng ~config consensus ~true_guard).correct then incr hits
  done;
  float_of_int !hits /. float_of_int trials
