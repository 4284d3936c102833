type hijack_trial = {
  guard : Relay.t;
  victim_prefix : Prefix.t;
  attacker : Asn.t;
  n_clients : int;
  anonymity_set_size : int;
  target_captured : bool;
  capture_fraction : float;
  entropy_bits_before : float;
  entropy_bits_after : float;
}

type hijack_summary = {
  trials : hijack_trial list;
  mean_capture : float;
  target_capture_rate : float;
  mean_set_reduction : float;
  mean_entropy_loss : float;
}

let pick_attacker ~rng (scenario : Scenario.t) ~victim_origin =
  let ases = Array.of_list (As_graph.ases scenario.Scenario.graph) in
  let rec loop attempts =
    if attempts > 100 then invalid_arg "Deanonymization: cannot pick attacker";
    let a = Rng.pick rng ases in
    if Asn.equal a victim_origin then loop (attempts + 1) else a
  in
  loop 0

let hijack ~rng ?(n_trials = 20) ?(n_clients = 40) (scenario : Scenario.t) =
  let trials = ref [] in
  for _ = 1 to n_trials do
    let guard = Path_selection.pick_guard ~rng scenario.Scenario.consensus in
    match Scenario.guard_announcement scenario guard with
    | None -> ()  (* unrouted relay: skip trial *)
    | Some victim ->
        let attacker =
          pick_attacker ~rng scenario ~victim_origin:victim.Announcement.origin
        in
        let h =
          Hijack.same_prefix scenario.Scenario.indexed ~victim ~attacker ()
        in
        let client_ases =
          List.init n_clients (fun i ->
              (Scenario.random_client_as ~rng scenario, i))
        in
        let observed = Hijack.anonymity_set h ~clients:client_ases in
        let set_size = List.length observed in
        let target_captured = List.exists (fun (tag, _) -> tag = 0) observed in
        let entropy_before = Anonymity.anonymity_set_entropy n_clients in
        let entropy_after =
          if target_captured && set_size > 0 then
            Anonymity.anonymity_set_entropy set_size
          else entropy_before
        in
        trials :=
          { guard;
            victim_prefix = victim.Announcement.prefix;
            attacker;
            n_clients;
            anonymity_set_size = set_size;
            target_captured;
            capture_fraction = h.Hijack.capture_fraction;
            entropy_bits_before = entropy_before;
            entropy_bits_after = entropy_after }
          :: !trials
  done;
  let trials = !trials in
  let n = float_of_int (max 1 (List.length trials)) in
  let mean f = List.fold_left (fun acc t -> acc +. f t) 0. trials /. n in
  { trials;
    mean_capture = mean (fun t -> t.capture_fraction);
    target_capture_rate =
      mean (fun t -> if t.target_captured then 1. else 0.);
    mean_set_reduction =
      mean (fun t ->
          float_of_int t.anonymity_set_size /. float_of_int (max 1 t.n_clients));
    mean_entropy_loss =
      mean (fun t -> t.entropy_bits_before -. t.entropy_bits_after) }

type interception_trial = {
  i_guard : Relay.t;
  i_attacker : Asn.t;
  feasible : bool;
  i_capture_fraction : float;
  i_target_captured : bool;
  deanonymized : bool;
}

type interception_summary = {
  i_trials : interception_trial list;
  feasibility_rate : float;
  i_target_capture_rate : float;
  deanonymization_rate : float;
  timing_accuracy : float;
}

let interception ~rng ?(n_trials = 20) ?timing_accuracy (scenario : Scenario.t) =
  let timing_accuracy =
    match timing_accuracy with
    | Some a -> a
    | None ->
        let m = Asymmetric.deanonymize ~rng () in
        m.Asymmetric.accuracy
  in
  let trials = ref [] in
  for _ = 1 to n_trials do
    let guard = Path_selection.pick_guard ~rng scenario.Scenario.consensus in
    match Scenario.guard_announcement scenario guard with
    | None -> ()
    | Some victim ->
        let attacker =
          pick_attacker ~rng scenario ~victim_origin:victim.Announcement.origin
        in
        let i =
          Interception.run scenario.Scenario.indexed ~victim ~attacker ()
        in
        let target_as = Scenario.random_client_as ~rng scenario in
        let captured = Interception.observes i target_as in
        (* Exact deanonymization needs the connection to survive (feasible
           interception) and the timing correlation to single the client
           out. *)
        let deanonymized =
          i.Interception.feasible && captured
          && Rng.float rng 1.0 < timing_accuracy
        in
        trials :=
          { i_guard = guard;
            i_attacker = attacker;
            feasible = i.Interception.feasible;
            i_capture_fraction = i.Interception.capture_fraction;
            i_target_captured = captured;
            deanonymized }
          :: !trials
  done;
  let trials = !trials in
  let n = float_of_int (max 1 (List.length trials)) in
  let rate f = List.fold_left (fun acc t -> acc +. (if f t then 1. else 0.)) 0. trials /. n in
  { i_trials = trials;
    feasibility_rate = rate (fun t -> t.feasible);
    i_target_capture_rate = rate (fun t -> t.i_target_captured);
    deanonymization_rate = rate (fun t -> t.deanonymized);
    timing_accuracy }

let print_hijack ppf s =
  Format.fprintf ppf "A1: prefix hijack of guard prefixes (anonymity-set attack)@.";
  Format.fprintf ppf
    "  %d trials: mean capture %.1f%% of ASes; target observed in %.0f%% of trials@."
    (List.length s.trials) (100. *. s.mean_capture)
    (100. *. s.target_capture_rate);
  Format.fprintf ppf
    "  anonymity set shrinks to %.0f%% of clients on average; mean entropy loss %.2f bits@."
    (100. *. s.mean_set_reduction) s.mean_entropy_loss

let print_interception ppf s =
  Format.fprintf ppf "A2: prefix interception of guard prefixes (exact deanonymization)@.";
  Format.fprintf ppf
    "  %d trials: interception feasible in %.0f%%; target captured in %.0f%%@."
    (List.length s.i_trials) (100. *. s.feasibility_rate)
    (100. *. s.i_target_capture_rate);
  Format.fprintf ppf
    "  end-to-end deanonymization rate %.0f%% (timing-correlation accuracy %.0f%%)@."
    (100. *. s.deanonymization_rate) (100. *. s.timing_accuracy)
