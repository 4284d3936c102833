type t = {
  n_relays : int;
  n_guards : int;
  n_exits : int;
  n_guard_exits : int;
  n_tor_prefixes : int;
  n_origin_ases : int;
  relays_per_prefix_median : float;
  relays_per_prefix_p75 : float;
  relays_per_prefix_max : int;
  n_sessions : int;
  mean_visibility : float;
  max_visibility : float;
  per_session_tor_median : float;
  per_session_tor_max : int;
}

let consensus_part (scenario : Scenario.t) =
  let consensus = scenario.Scenario.consensus in
  let tp = scenario.Scenario.tor_prefixes in
  let per_prefix = Tor_prefix.relays_per_prefix tp in
  let per_prefix_f = Stats.of_ints per_prefix in
  let guards = List.length (Consensus.guards consensus) in
  let exits = List.length (Consensus.exits consensus) in
  let both =
    Array.to_list consensus.Consensus.relays
    |> List.filter (fun r -> Relay.is_guard r && Relay.is_exit r)
    |> List.length
  in
  { n_relays = Consensus.n_relays consensus;
    n_guards = guards;
    n_exits = exits;
    n_guard_exits = both;
    n_tor_prefixes = Tor_prefix.count tp;
    n_origin_ases = Asn.Set.cardinal (Tor_prefix.origin_ases tp);
    relays_per_prefix_median = Stats.median per_prefix_f;
    relays_per_prefix_p75 = Stats.percentile per_prefix_f 75.;
    relays_per_prefix_max =
      List.fold_left max 0 per_prefix;
    n_sessions = List.length (Scenario.sessions scenario);
    mean_visibility = 0.;
    max_visibility = 0.;
    per_session_tor_median = 0.;
    per_session_tor_max = 0 }

let compute (m : Measurement.t) =
  let scenario = m.Measurement.scenario in
  let base = consensus_part scenario in
  let tor_prefixes =
    Tor_prefix.entries scenario.Scenario.tor_prefixes
    |> List.map (fun e -> e.Tor_prefix.prefix)
  in
  let visibilities =
    List.map (fun p -> Measurement.visibility_fraction m p) tor_prefixes
  in
  (* Tor prefixes learned per session, counted in one pass over the
     cells. *)
  let learned = Update.Session_table.create 128 in
  List.iter
    (fun (c : Measurement.cell) ->
       if Measurement.is_tor m c.Measurement.key.Measurement.prefix
       && (c.Measurement.baseline <> None || c.Measurement.updates > 0)
       then begin
         let id = c.Measurement.key.Measurement.session in
         match Update.Session_table.find learned id with
         | n -> incr n
         | exception Not_found -> Update.Session_table.add learned id (ref 1)
       end)
    m.Measurement.cells;
  let per_session =
    Scenario.sessions scenario
    |> List.map (fun (s : Collector.session) ->
        match Update.Session_table.find learned s.Collector.id with
        | n -> !n
        | exception Not_found -> 0)
  in
  { base with
    mean_visibility = (match visibilities with [] -> 0. | v -> Stats.mean v);
    max_visibility = (match visibilities with [] -> 0. | v -> Stats.maximum v);
    per_session_tor_median =
      (match per_session with [] -> 0. | l -> Stats.median (Stats.of_ints l));
    per_session_tor_max = List.fold_left max 0 per_session }

let print ppf t =
  let row name paper measured =
    Format.fprintf ppf "  %-38s %14s %14s@." name paper measured
  in
  Format.fprintf ppf "T1: dataset summary (paper vs measured)@.";
  row "statistic" "paper" "measured";
  row "relays" "4586" (string_of_int t.n_relays);
  row "guards" "1918" (string_of_int t.n_guards);
  row "exits" "891" (string_of_int t.n_exits);
  row "guard+exit" "442" (string_of_int t.n_guard_exits);
  row "Tor prefixes" "1251" (string_of_int t.n_tor_prefixes);
  row "origin ASes" "650" (string_of_int t.n_origin_ases);
  row "relays/prefix median" "1" (Printf.sprintf "%.0f" t.relays_per_prefix_median);
  row "relays/prefix p75" "2" (Printf.sprintf "%.0f" t.relays_per_prefix_p75);
  row "relays/prefix max" "33" (string_of_int t.relays_per_prefix_max);
  row "collector sessions" ">70" (string_of_int t.n_sessions);
  row "Tor prefix visibility (mean)" "~40%"
    (Printf.sprintf "%.0f%%" (100. *. t.mean_visibility));
  row "Tor prefix visibility (max)" "60%"
    (Printf.sprintf "%.0f%%" (100. *. t.max_visibility));
  row "Tor prefixes/session median" "438 (35%)"
    (Printf.sprintf "%.0f (%.0f%%)" t.per_session_tor_median
       (100. *. t.per_session_tor_median /. float_of_int (max 1 t.n_tor_prefixes)));
  row "Tor prefixes/session max" "1242 (99%)"
    (Printf.sprintf "%d (%.0f%%)" t.per_session_tor_max
       (100. *. float_of_int t.per_session_tor_max
        /. float_of_int (max 1 t.n_tor_prefixes)))
