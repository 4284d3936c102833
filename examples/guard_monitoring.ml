(* The §5 countermeasure in action: a control-plane monitor watches the
   collector feeds for anomalies on relay prefixes; clients consult it
   before extending circuits and route around flagged guards.

     dune exec examples/guard_monitoring.exe                              *)

let pf = Format.printf

let () =
  let scenario = Scenario.build ~seed:3 Scenario.Small in
  let rng = Scenario.rng_for scenario "guard-monitoring" in
  let dynamics =
    { Dynamics.short_config with Dynamics.duration = 1.5 *. 86_400. }
  in
  let duration = dynamics.Dynamics.duration in

  (* The attack we will inject: hijack a busy guard's prefix mid-run. *)
  let guard = Path_selection.pick_guard ~rng scenario.Scenario.consensus in
  let victim =
    match Scenario.guard_announcement scenario guard with
    | Some v -> v
    | None -> failwith "unrouted guard"
  in
  let attacker =
    let rec pick () =
      let a = Scenario.random_client_as ~rng scenario in
      if Asn.equal a victim.Announcement.origin then pick () else a
    in
    pick ()
  in
  let attack_time = duration *. 0.6 in
  let h = Hijack.same_prefix scenario.Scenario.indexed ~victim ~attacker () in
  let injected =
    Scenario.sessions scenario
    |> List.filter_map (fun (s : Collector.session) ->
        let peer = s.Collector.id.Update.peer in
        match Propagate.winning_announcement h.Hijack.outcome peer with
        | Some 1 ->
            Option.map
              (fun route ->
                 { Update.time = attack_time +. Rng.float rng 60.;
                   session = s.Collector.id;
                   kind = Update.Announce route })
              (Propagate.route_at h.Hijack.outcome peer)
        | Some _ | None -> None)
    |> List.sort (fun a b -> Float.compare a.Update.time b.Update.time)
  in
  pf "guard under attack: %a in %a (prefix %a), hijacked at t=%.0fs by %a@."
    Ipv4.pp guard.Relay.ip Asn.pp guard.Relay.asn Prefix.pp
    victim.Announcement.prefix attack_time Asn.pp attacker;

  (* Run the measurement with the monitor attached to the filtered feed. *)
  let monitor = Detection.create ~learning_period:(duration /. 4.) () in
  let first_alarm = ref None in
  let observe u =
    List.iter
      (fun (a : Detection.alarm) ->
         if !first_alarm = None
            && Prefix.overlaps victim.Announcement.prefix
                 (match a.Detection.kind with
                  | Detection.Moas { prefix; _ } -> prefix
                  | Detection.Sub_prefix { sub; _ } -> sub
                  | Detection.Origin_adjacency { prefix; _ } -> prefix)
         then begin
           first_alarm := Some a.Detection.time;
           pf "ALARM at t=%.0fs (%.0fs after injection): %a@." a.Detection.time
             (a.Detection.time -. attack_time) Detection.pp_alarm a
         end)
      (Detection.observe monitor u)
  in
  let _ =
    Measurement.run ~dynamics ~extra_updates:injected ~observe scenario
  in
  (match !first_alarm with
   | None -> pf "monitor missed the hijack (increase collector coverage)@."
   | Some _ -> ());

  (* A client consults the monitor during guard selection. *)
  let pick_safe_guard () =
    let rec loop attempts =
      if attempts > 50 then None
      else
        let g = Path_selection.pick_guard ~rng scenario.Scenario.consensus in
        match Tor_prefix.prefix_of_relay scenario.Scenario.tor_prefixes g with
        | Some (p, _) when Detection.suspicious monitor p -> loop (attempts + 1)
        | _ -> Some g
    in
    loop 0
  in
  match pick_safe_guard () with
  | Some g when Relay.equal g guard ->
      pf "client still picked the attacked guard — alarm came too late?@."
  | Some g ->
      pf "client guard selection now avoids the flagged prefix; picked %a in %a instead@."
        Ipv4.pp g.Relay.ip Asn.pp g.Relay.asn;
      pf "(false positives are fine here: §5 — better to skip a healthy relay than to lose anonymity)@."
  | None -> pf "no unflagged guard available (aggressive monitor + tiny consensus)@."
