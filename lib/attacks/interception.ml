type t = {
  outcome : Propagate.t;
  victim : Asn.t;
  attacker : Asn.t;
  captured : Asn.t list;
  capture_fraction : float;
  feasible : bool;
  return_path : Asn.t list option;
}

(* A clean return path through neighbor [n]: [n] selected the legitimate
   announcement (index 0) and its forwarding walk avoids the attacker. *)
let clean_via graph outcome ~attacker n_id =
  let n = As_graph.Indexed.asn_of_id graph n_id in
  match Propagate.winning_announcement outcome n with
  | Some 0 -> begin
      match Propagate.forwarding_path outcome n with
      | Some walk when not (List.exists (Asn.equal attacker) walk) ->
          Some (attacker :: walk)
      | Some _ | None -> None
    end
  | Some _ | None -> None

let find_return_path graph outcome ~attacker =
  let attacker_id = As_graph.Indexed.id_of_asn graph attacker in
  let candidates = ref [] in
  Array.iter
    (fun (n_id, _rel) ->
       match clean_via graph outcome ~attacker n_id with
       | Some walk -> candidates := (List.length walk, walk) :: !candidates
       | None -> ())
    (As_graph.Indexed.neighbors graph attacker_id);
  match List.sort (fun (l1, _) (l2, _) -> Int.compare l1 l2) !candidates with
  | (_, walk) :: _ -> Some walk
  | [] -> None

let summarize graph outcome ~victim_origin ~attacker =
  let captured = Propagate.captured outcome 1 in
  let routed = Propagate.routed_count outcome in
  let capture_fraction =
    if routed = 0 then 0.
    else float_of_int (List.length captured) /. float_of_int routed
  in
  let return_path = find_return_path graph outcome ~attacker in
  (* An interception that captures nobody but the attacker is pointless;
     one without a clean return path is a blackholing hijack, not an
     interception. *)
  let nontrivial = List.exists (fun a -> not (Asn.equal a attacker)) captured in
  { outcome; victim = victim_origin; attacker; captured; capture_fraction;
    feasible = Option.is_some return_path && nontrivial;
    return_path = (if nontrivial then return_path else None) }

let run graph ?failed ?rov ?scope ~victim ~attacker () =
  let victim_origin = victim.Announcement.origin in
  if Asn.equal attacker victim_origin then
    invalid_arg "Interception.run: attacker is the victim";
  Metrics.incr Manifest.attack_interception_runs;
  let base_bogus =
    Announcement.originate attacker victim.Announcement.prefix
    |> Announcement.with_fake_suffix [ victim_origin ]
  in
  match scope with
  | Some s ->
      if not (Asn.equal s.Announcement.origin attacker)
         || not (Prefix.equal s.Announcement.prefix victim.Announcement.prefix)
      then invalid_arg "Interception.run: scope origin/prefix mismatch";
      let outcome = Propagate.compute graph ?failed ?rov [ victim; s ] in
      summarize graph outcome ~victim_origin ~attacker
  | None ->
      (* Ballani-style selective announcement: try the full announcement
         first (maximal capture); if no clean uplink survives, withhold the
         announcement from one neighbor at a time (providers first — their
         routes are usable for sending regardless of export policy) until a
         clean return path exists. *)
      let attacker_id = As_graph.Indexed.id_of_asn graph attacker in
      let neighbors =
        Array.to_list (As_graph.Indexed.neighbors graph attacker_id)
      in
      let rel_rank = function
        | Relationship.Provider -> 0
        | Relationship.Peer -> 1
        | Relationship.Customer -> 2
      in
      let by_pref =
        List.sort (fun (_, r1) (_, r2) -> Int.compare (rel_rank r1) (rel_rank r2))
          neighbors
      in
      let all_neighbor_set =
        List.fold_left
          (fun acc (n_id, _) ->
             Asn.Set.add (As_graph.Indexed.asn_of_id graph n_id) acc)
          Asn.Set.empty neighbors
      in
      let attempt spared =
        let bogus =
          match spared with
          | None -> base_bogus
          | Some n ->
              Announcement.with_export_to (Asn.Set.remove n all_neighbor_set)
                base_bogus
        in
        let outcome = Propagate.compute graph ?failed ?rov [ victim; bogus ] in
        summarize graph outcome ~victim_origin ~attacker
      in
      let full = attempt None in
      if full.feasible then full
      else begin
        let rec try_candidates = function
          | [] -> full  (* report the infeasible full-announcement attempt *)
          | (n_id, _) :: rest ->
              let n = As_graph.Indexed.asn_of_id graph n_id in
              let r = attempt (Some n) in
              if r.feasible then r else try_candidates rest
        in
        try_candidates (match by_pref with
                        | xs when List.length xs > 6 -> List.filteri (fun i _ -> i < 6) xs
                        | xs -> xs)
      end

let observes t a =
  Asn.equal a t.attacker || List.exists (Asn.equal a) t.captured

let wins t a = t.feasible && observes t a
