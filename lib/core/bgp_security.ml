type point = {
  deployment : float;
  hijack_capture : float;
  subprefix_capture : float;
  interception_capture : float;
  interception_feasible : float;
}

type t = {
  points : point list;
  trials_per_point : int;
}

(* A strictly-inside sub-prefix for the more-specific attack; None if the
   victim prefix is a /24 or longer (operators rarely accept longer). *)
let sub_of p =
  if Prefix.length p >= 24 then None
  else Some (fst (Prefix.split p))

let sweep ~rng ?(deployments = [ 0.; 0.25; 0.5; 0.75; 1.0 ]) ?(n_trials = 10)
    (scenario : Scenario.t) =
  let indexed = scenario.Scenario.indexed in
  let n_ases = As_graph.num_ases scenario.Scenario.graph in
  let table = Rpki.of_addressing scenario.Scenario.addressing in
  (* An adversary mounting BGP attacks is a real network: require at least
     two uplinks (single-homed stubs cannot intercept — their only provider
     always prefers the bogus customer route). *)
  let ases =
    As_graph.ases scenario.Scenario.graph
    |> List.filter (fun a -> As_graph.degree scenario.Scenario.graph a >= 2)
    |> Array.of_list
  in
  (* Fix the trial set (victim guard + attacker) across deployment levels. *)
  let trials =
    List.init n_trials (fun _ ->
        let guard = Path_selection.pick_guard ~rng scenario.Scenario.consensus in
        let victim = Scenario.guard_announcement scenario guard in
        let attacker =
          let rec pick n =
            let a = Rng.pick rng ases in
            match victim with
            | Some v when Asn.equal a v.Announcement.origin && n < 100 ->
                pick (n + 1)
            | _ -> a
          in
          pick 0
        in
        (victim, attacker))
    |> List.filter_map (fun (v, a) -> Option.map (fun v -> (v, a)) v)
  in
  (* Fix deployment sets too, largest-first nesting so the curves are
     monotone in deployment rather than re-rolled noise. *)
  let shuffled = Array.copy ases in
  Rng.shuffle rng shuffled;
  let deployers_for frac =
    let k = int_of_float (frac *. float_of_int (Array.length shuffled)) in
    Array.sub shuffled 0 k |> Array.to_list |> Asn.Set.of_list
  in
  let points =
    List.map
      (fun deployment ->
         let rov = (table, deployers_for deployment) in
         let stats =
           List.map
             (fun (victim, attacker) ->
                let h = Hijack.same_prefix indexed ~rov ~victim ~attacker () in
                let sub =
                  (* Capture over ALL ASes: deployers that drop the bogus
                     more-specific keep the legitimate covering route, so
                     captured/routed-on-the-subprefix would be vacuously 1. *)
                  match sub_of victim.Announcement.prefix with
                  | Some sub ->
                      let h' =
                        Hijack.more_specific indexed ~rov ~victim ~attacker ~sub ()
                      in
                      float_of_int (List.length h'.Hijack.captured)
                      /. float_of_int n_ases
                  | None -> 0.
                in
                let i = Interception.run indexed ~rov ~victim ~attacker () in
                ( h.Hijack.capture_fraction,
                  sub,
                  i.Interception.capture_fraction,
                  if i.Interception.feasible then 1. else 0. ))
             trials
         in
         let n = float_of_int (max 1 (List.length stats)) in
         let mean f = List.fold_left (fun acc s -> acc +. f s) 0. stats /. n in
         { deployment;
           hijack_capture = mean (fun (h, _, _, _) -> h);
           subprefix_capture = mean (fun (_, s, _, _) -> s);
           interception_capture = mean (fun (_, _, i, _) -> i);
           interception_feasible = mean (fun (_, _, _, f) -> f) })
      (List.sort Float.compare deployments)
  in
  { points; trials_per_point = List.length trials }

let print ppf t =
  Format.fprintf ppf "X1: RPKI/ROV deployment vs BGP attacks on guard prefixes@.";
  Format.fprintf ppf
    "  (%d trials per point; capture = mean fraction of ASes deflected)@."
    t.trials_per_point;
  Format.fprintf ppf "  %-12s %-14s %-16s %-20s %-12s@."
    "deployment" "origin-hijack" "subprefix-hijack" "interception(forged)" "feasible";
  List.iter
    (fun p ->
       Format.fprintf ppf "  %-12.0f %-14.3f %-16.3f %-20.3f %-12.2f@."
         (100. *. p.deployment) p.hijack_capture p.subprefix_capture
         p.interception_capture p.interception_feasible)
    t.points;
  Format.fprintf ppf
    "  -> ROV kills origin hijacks but forged-origin interception survives:@.";
  Format.fprintf ppf
    "     origin validation alone cannot protect Tor (the paper's §7 point).@."
