type pair = {
  client : Asn.t;
  guard : Relay.t;
  forward : Asn.Set.t;
  reverse : Asn.Set.t;
}

type t = {
  pairs : pair list;
  asymmetric_fraction : float;
  mean_forward : float;
  mean_union : float;
  mean_gain : float;
  compromise_forward : float;
  compromise_union : float;
}

let walk_set indexed ann from_as =
  Propagate.forwarding_set (Propagate.compute indexed [ ann ]) from_as

let compute ~rng ?(n_pairs = 40) ?(f = 0.05) (scenario : Scenario.t) =
  let indexed = scenario.Scenario.indexed in
  let pairs =
    List.init n_pairs (fun _ ->
        let client = Scenario.random_client_as ~rng scenario in
        let guard = Path_selection.pick_guard ~rng scenario.Scenario.consensus in
        match Scenario.guard_announcement scenario guard with
        | None -> None
        | Some guard_ann ->
            (* forward: the client's route towards the guard's prefix;
               reverse: the guard AS's route towards the client's prefix *)
            let forward = walk_set indexed guard_ann client in
            let reverse =
              match Addressing.prefixes_of scenario.Scenario.addressing client with
              | p :: _ ->
                  walk_set indexed (Announcement.originate client p)
                    guard.Relay.asn
              | [] -> Asn.Set.empty
            in
            if Asn.Set.is_empty forward || Asn.Set.is_empty reverse then None
            else Some { client; guard; forward; reverse })
    |> List.filter_map Fun.id
  in
  let n = float_of_int (max 1 (List.length pairs)) in
  let mean g = List.fold_left (fun acc p -> acc +. g p) 0. pairs /. n in
  let union p = Asn.Set.union p.forward p.reverse in
  { pairs;
    asymmetric_fraction =
      mean (fun p -> if Asn.Set.equal p.forward p.reverse then 0. else 1.);
    mean_forward = mean (fun p -> float_of_int (Asn.Set.cardinal p.forward));
    mean_union = mean (fun p -> float_of_int (Asn.Set.cardinal (union p)));
    mean_gain =
      mean (fun p ->
          float_of_int
            (Asn.Set.cardinal (union p) - Asn.Set.cardinal p.forward));
    compromise_forward =
      mean (fun p ->
          Anonymity.compromise_probability ~f
            ~x:(Asn.Set.cardinal p.forward));
    compromise_union =
      mean (fun p ->
          Anonymity.compromise_probability ~f
            ~x:(Asn.Set.cardinal (union p))) }

let print ppf t =
  Format.fprintf ppf "X2: routing asymmetry on the entry segment (§3.3)@.";
  Format.fprintf ppf
    "  %d (client, guard) pairs: %.0f%% have forward != reverse AS sets@."
    (List.length t.pairs)
    (100. *. t.asymmetric_fraction);
  Format.fprintf ppf
    "  mean ASes: forward-only %.1f -> either-direction %.1f (+%.1f)@."
    t.mean_forward t.mean_union t.mean_gain;
  Format.fprintf ppf
    "  P[compromise] at f=0.05: %.3f (conventional) -> %.3f (asymmetric attacker)@."
    t.compromise_forward t.compromise_union
