type circuit = {
  guard : Relay.t;
  middle : Relay.t;
  exit : Relay.t;
}

let pp_circuit ppf c =
  Format.fprintf ppf "%a -> %a -> %a" Ipv4.pp c.guard.Relay.ip Ipv4.pp
    c.middle.Relay.ip Ipv4.pp c.exit.Relay.ip

let pick_weighted ~rng relays =
  match relays with
  | [] -> invalid_arg "Path_selection.pick_weighted: no relays"
  | _ ->
      let arr = Array.of_list relays in
      let weights = Array.map (fun r -> float_of_int r.Relay.bandwidth) arr in
      arr.(Rng.weighted_index rng weights)

(* Same draw as [pick_weighted] on the pool as a list: the pool and its
   weights are in roster order, so one [Rng.weighted_index] picks the same
   relay. *)
let pick_from ~what ~rng pool weights =
  if Array.length pool = 0 then
    invalid_arg ("Path_selection.pick_" ^ what ^ ": no relays");
  pool.(Rng.weighted_index rng weights)

let pick_guard ~rng (c : Consensus.t) =
  pick_from ~what:"guard" ~rng c.Consensus.guard_pool c.Consensus.guard_weights

let pick_exit ~rng (c : Consensus.t) =
  pick_from ~what:"exit" ~rng c.Consensus.exit_pool c.Consensus.exit_weights

let slash16 r = Ipv4.to_int r.Relay.ip lsr 16

let conflict a b = Relay.equal a b || slash16 a = slash16 b

let conflict_with_any r chosen = List.exists (conflict r) chosen

let pick_guards ~rng consensus ~n =
  let rec loop chosen attempts =
    if List.length chosen = n then List.rev chosen
    else if attempts > 200 * n then
      invalid_arg "Path_selection.pick_guards: cannot satisfy diversity constraint"
    else begin
      let g = pick_guard ~rng consensus in
      if conflict_with_any g chosen then loop chosen (attempts + 1)
      else loop (g :: chosen) (attempts + 1)
    end
  in
  if Array.length consensus.Consensus.guard_pool < n then
    invalid_arg "Path_selection.pick_guards: not enough guards";
  loop [] 0

(* Under a living consensus a client's guard set must survive relay
   churn: guards still listed keep their slot (updated to the new
   consensus record, so drifted bandwidths are visible), departed ones
   are replaced by fresh weighted draws that respect the same
   relay-/16 diversity constraint against the kept set. *)
let refresh_guards ~rng consensus guards =
  let pool = consensus.Consensus.guard_pool in
  let kept = List.filter_map (fun g -> Array.find_opt (Relay.equal g) pool) guards in
  let need = List.length guards - List.length kept in
  if need = 0 then (kept, 0)
  else begin
    if Array.length pool < List.length guards then
      invalid_arg "Path_selection.refresh_guards: not enough guards";
    let rec loop chosen need attempts =
      if need = 0 then chosen
      else if attempts > 200 * List.length guards then
        invalid_arg
          "Path_selection.refresh_guards: cannot satisfy diversity constraint"
      else begin
        let g = pick_guard ~rng consensus in
        if conflict_with_any g chosen then loop chosen need (attempts + 1)
        else loop (chosen @ [ g ]) (need - 1) (attempts + 1)
      end
    in
    (loop kept need 0, need)
  end

let build_circuit ~rng consensus ~guards =
  match guards with
  | [] -> invalid_arg "Path_selection.build_circuit: empty guard set"
  | _ ->
      let guard = Rng.pick_list rng guards in
      let exits =
        Consensus.exits consensus |> List.filter (fun r -> not (conflict r guard))
      in
      let exit =
        match exits with
        | [] -> invalid_arg "Path_selection.build_circuit: no usable exit"
        | _ -> pick_weighted ~rng exits
      in
      let middles =
        Array.to_list consensus.Consensus.relays
        |> List.filter (fun r -> not (conflict r guard) && not (conflict r exit))
      in
      let middle =
        match middles with
        | [] -> invalid_arg "Path_selection.build_circuit: no usable middle"
        | _ -> pick_weighted ~rng middles
      in
      { guard; middle; exit }

type client = {
  client_id : int;
  client_asn : Asn.t;
  client_ip : Ipv4.t;
  mutable guard_set : Relay.t list;
  mutable guards_chosen_at : float;
}

let make_client ~rng consensus ~id ~asn ~ip ?(n_guards = 3) time =
  { client_id = id;
    client_asn = asn;
    client_ip = ip;
    guard_set = pick_guards ~rng consensus ~n:n_guards;
    guards_chosen_at = time }

let rotate_guards_if_due ~rng consensus ~rotation_period ~now client =
  if now -. client.guards_chosen_at >= rotation_period then begin
    client.guard_set <-
      pick_guards ~rng consensus ~n:(List.length client.guard_set);
    client.guards_chosen_at <- now;
    true
  end
  else false
