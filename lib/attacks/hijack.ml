type t = {
  outcome : Propagate.t;
  victim : Asn.t;
  attacker : Asn.t;
  captured : Asn.t list;
  capture_fraction : float;
}

let build outcome ~victim ~attacker ~attacker_index =
  let captured = Propagate.captured outcome attacker_index in
  let routed = Propagate.routed_count outcome in
  let capture_fraction =
    if routed = 0 then 0.
    else float_of_int (List.length captured) /. float_of_int routed
  in
  { outcome; victim; attacker; captured; capture_fraction }

let same_prefix graph ?failed ?rov ~victim ~attacker () =
  let victim_origin = victim.Announcement.origin in
  if Asn.equal attacker victim_origin then
    invalid_arg "Hijack.same_prefix: attacker is the victim";
  Metrics.incr Manifest.attack_hijack_runs;
  let bogus = Announcement.originate attacker victim.Announcement.prefix in
  let outcome = Propagate.compute graph ?failed ?rov [ victim; bogus ] in
  build outcome ~victim:victim_origin ~attacker ~attacker_index:1

let more_specific graph ?failed ?rov ~victim ~attacker ~sub () =
  let victim_origin = victim.Announcement.origin in
  if Asn.equal attacker victim_origin then
    invalid_arg "Hijack.more_specific: attacker is the victim";
  if not (Prefix.subsumes victim.Announcement.prefix sub)
     || Prefix.equal victim.Announcement.prefix sub
  then invalid_arg "Hijack.more_specific: sub must be strictly inside the victim prefix";
  Metrics.incr Manifest.attack_hijack_runs;
  (* The more-specific travels on its own; anyone who hears it prefers it
     by longest-prefix match, whatever the AS path looks like. *)
  let bogus = Announcement.originate attacker sub in
  let outcome = Propagate.compute graph ?failed ?rov [ bogus ] in
  build outcome ~victim:victim_origin ~attacker ~attacker_index:0

let is_captured t a = List.exists (Asn.equal a) t.captured

let wins = is_captured

let anonymity_set t ~clients =
  List.filter_map
    (fun (asn, tag) -> if is_captured t asn then Some (tag, asn) else None)
    clients
