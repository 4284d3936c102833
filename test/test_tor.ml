(* Tests for qs_tor: relays, consensus generation, Tor-prefix mapping and
   path selection. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let setup seed =
  let rng = Rng.of_int seed in
  let g = Topo_gen.generate ~rng:(Rng.split rng) Topo_gen.small_params in
  let addressing = Addressing.allocate ~rng:(Rng.split rng) g in
  let consensus =
    Consensus.generate ~rng:(Rng.split rng) ~params:Consensus.small_params g addressing
  in
  (rng, g, addressing, consensus)

(* ---- Relay ----------------------------------------------------------- *)

let test_relay_flags () =
  let r =
    Relay.make ~nickname:"r1" ~ip:(Ipv4.of_string "1.2.3.4") ~asn:(Asn.of_int 7)
      ~bandwidth:100 ~flags:[ Relay.Guard; Relay.Fast ]
  in
  check_bool "guard" true (Relay.is_guard r);
  check_bool "not exit" false (Relay.is_exit r);
  check_bool "has fast" true (Relay.has_flag r Relay.Fast);
  Alcotest.check_raises "negative bandwidth"
    (Invalid_argument "Relay.make: negative bandwidth")
    (fun () ->
       ignore
         (Relay.make ~nickname:"x" ~ip:(Ipv4.of_string "1.2.3.4")
            ~asn:(Asn.of_int 7) ~bandwidth:(-1) ~flags:[]))

let test_relay_flag_strings () =
  List.iter
    (fun f ->
       check_bool "roundtrip" true
         (Relay.flag_of_string (Relay.flag_to_string f) = Some f))
    [ Relay.Guard; Relay.Exit; Relay.Fast; Relay.Stable ];
  check_bool "unknown flag" true (Relay.flag_of_string "Bogus" = None)

(* ---- Consensus ------------------------------------------------------- *)

let test_consensus_counts () =
  let _, _, _, consensus = setup 1 in
  let p = Consensus.small_params in
  check_int "relays" p.Consensus.n_relays (Consensus.n_relays consensus);
  check_int "guards" p.Consensus.n_guards (List.length (Consensus.guards consensus));
  check_int "exits" p.Consensus.n_exits (List.length (Consensus.exits consensus));
  let both =
    Array.to_list consensus.Consensus.relays
    |> List.filter (fun r -> Relay.is_guard r && Relay.is_exit r)
  in
  check_int "guard+exit" p.Consensus.n_guard_exits (List.length both);
  check_int "guard-or-exit"
    (p.Consensus.n_guards + p.Consensus.n_exits - p.Consensus.n_guard_exits)
    (List.length (Consensus.guard_or_exit consensus))

let test_consensus_params_validated () =
  let _, g, addressing, _ = setup 2 in
  let bad = { Consensus.small_params with Consensus.n_guard_exits = 1000 } in
  check_bool "inconsistent flags rejected" true
    (try ignore (Consensus.generate ~rng:(Rng.of_int 0) ~params:bad g addressing); false
     with Invalid_argument _ -> true)

let test_consensus_serialization_roundtrip () =
  let _, _, _, consensus = setup 3 in
  let s = Consensus.to_string consensus in
  let consensus' = Consensus.of_string s in
  check_int "relay count" (Consensus.n_relays consensus) (Consensus.n_relays consensus');
  let r = consensus.Consensus.relays.(0) and r' = consensus'.Consensus.relays.(0) in
  check_bool "first relay survives" true
    (Relay.equal r r' && r.Relay.bandwidth = r'.Relay.bandwidth
     && r.Relay.nickname = r'.Relay.nickname
     && Asn.equal r.Relay.asn r'.Relay.asn);
  check_int "guards survive" (List.length (Consensus.guards consensus))
    (List.length (Consensus.guards consensus'))

let test_consensus_relays_in_hosting () =
  (* hosting ASes should collectively host a disproportionate share *)
  let _, g, _, consensus = setup 4 in
  let hosting = Topo_gen.hosting_ases g |> List.map fst in
  let hosted =
    List.fold_left (fun acc a -> acc + List.length (Consensus.relays_in consensus a))
      0 hosting
  in
  let frac = float_of_int hosted /. float_of_int (Consensus.n_relays consensus) in
  check_bool "hosting ASes over-represented" true (frac > 0.3)

let test_consensus_deterministic () =
  let _, _, _, c1 = setup 5 in
  let _, _, _, c2 = setup 5 in
  Alcotest.(check string) "same consensus" (Consensus.to_string c1)
    (Consensus.to_string c2)

(* ---- Sampling pools --------------------------------------------------- *)

let paper_world =
  lazy
    (let rng = Rng.of_int 1 in
     let g = Topo_gen.generate ~rng:(Rng.split rng) Topo_gen.default_params in
     let addressing = Addressing.allocate ~rng:(Rng.split rng) g in
     (g, addressing, Consensus.generate ~rng:(Rng.split rng) g addressing))

let paper_consensus = lazy (let _, _, c = Lazy.force paper_world in c)

(* The filters the pools replace, recomputed from the roster. *)
let filtered keep (c : Consensus.t) =
  List.filter keep (Array.to_list c.Consensus.relays)

(* [Consensus.make]'s pools must hold exactly the relays the old per-draw
   filters produced, in roster order, weighted by their bandwidths. *)
let check_pools what (c : Consensus.t) =
  let check name pool weights keep =
    let expected = filtered keep c in
    check_bool (Printf.sprintf "%s: %s pool = filter" what name) true
      (List.equal ( == ) expected (Array.to_list pool));
    check_bool (Printf.sprintf "%s: %s weights = bandwidths" what name) true
      (List.map (fun (r : Relay.t) -> float_of_int r.Relay.bandwidth) expected
       = Array.to_list weights)
  in
  check "guard" c.Consensus.guard_pool c.Consensus.guard_weights Relay.is_guard;
  check "exit" c.Consensus.exit_pool c.Consensus.exit_weights Relay.is_exit

let test_pools_generate () =
  List.iter
    (fun seed ->
       let _, _, _, c = setup seed in
       check_pools (Printf.sprintf "small seed %d" seed) c)
    [ 1; 2; 3 ];
  check_pools "paper" (Lazy.force paper_consensus)

let test_pools_of_string () =
  List.iter
    (fun (what, c) ->
       check_pools (what ^ " reparsed") (Consensus.of_string (Consensus.to_string c)))
    [ ("small", (let _, _, _, c = setup 3 in c));
      ("paper", Lazy.force paper_consensus) ]

(* Every epoch of a 5-day hourly living consensus is built through
   [Consensus.make], so each carries its own roster's pools. *)
let test_pools_living () =
  let rng, g, addressing, base = setup 8 in
  let cd =
    Consensus_dynamics.generate ~rng:(Rng.split rng) ~gen:Consensus.small_params
      ~n_epochs:(5 * 24) g addressing base
  in
  for i = 0 to Consensus_dynamics.n_epochs cd - 1 do
    check_pools (Printf.sprintf "epoch %d" i)
      (Consensus_dynamics.at cd i).Consensus_dynamics.consensus
  done

(* [pick_guard]/[pick_exit] against list-based [pick_weighted] on the old
   filters, with twin RNGs: the same relay on every draw, and the same
   stream position afterwards (one draw consumed per pick). *)
let test_pick_pools_match_list () =
  List.iter
    (fun (what, (c : Consensus.t)) ->
       let guards = filtered Relay.is_guard c and exits = filtered Relay.is_exit c in
       let a = Rng.of_int 99 and b = Rng.of_int 99 in
       for i = 1 to 1000 do
         let g = Path_selection.pick_guard ~rng:a c
         and g' = Path_selection.pick_weighted ~rng:b guards in
         let e = Path_selection.pick_exit ~rng:a c
         and e' = Path_selection.pick_weighted ~rng:b exits in
         if not (g == g' && e == e') then
           Alcotest.failf "%s: draw %d differs from pick_weighted" what i
       done;
       Alcotest.(check int64) (what ^ ": streams in step") (Rng.int64 b) (Rng.int64 a))
    [ ("small", (let _, _, _, c = setup 9 in c));
      ("paper", Lazy.force paper_consensus) ]

let test_pick_empty_pool () =
  let c =
    Consensus.make ~valid_after:0.
      [| Relay.make ~nickname:"m" ~ip:(Ipv4.of_string "1.2.3.4") ~asn:(Asn.of_int 7)
           ~bandwidth:10 ~flags:[ Relay.Fast ] |]
  in
  Alcotest.check_raises "no guard"
    (Invalid_argument "Path_selection.pick_guard: no relays")
    (fun () -> ignore (Path_selection.pick_guard ~rng:(Rng.of_int 1) c));
  Alcotest.check_raises "no exit"
    (Invalid_argument "Path_selection.pick_exit: no relays")
    (fun () -> ignore (Path_selection.pick_exit ~rng:(Rng.of_int 1) c))

(* ---- Tor_prefix ------------------------------------------------------ *)

let test_tor_prefix_mapping () =
  let _, _, addressing, consensus = setup 6 in
  let tp = Tor_prefix.compute addressing consensus in
  check_bool "some prefixes found" true (Tor_prefix.count tp > 0);
  check_int "nothing unmapped" 0 (Tor_prefix.unmapped tp);
  (* every guard/exit relay maps to a prefix that contains it and is the
     most specific announced one *)
  List.iter
    (fun (r : Relay.t) ->
       match Tor_prefix.prefix_of_relay tp r with
       | Some (p, origin) ->
           check_bool "contains the relay" true (Prefix.mem r.Relay.ip p);
           check_bool "most specific" true
             (match Addressing.covering_prefix addressing r.Relay.ip with
              | Some (p', o') -> Prefix.equal p p' && Asn.equal origin o'
              | None -> false)
       | None -> Alcotest.fail "guard/exit relay unmapped")
    (Consensus.guard_or_exit consensus)

let test_tor_prefix_entries_consistent () =
  let _, _, addressing, consensus = setup 7 in
  let tp = Tor_prefix.compute addressing consensus in
  let total_relays =
    List.fold_left (fun acc e -> acc + List.length e.Tor_prefix.relays) 0
      (Tor_prefix.entries tp)
  in
  check_int "entries partition the guard/exit relays"
    (List.length (Consensus.guard_or_exit consensus)) total_relays;
  check_int "counts agree" (Tor_prefix.count tp)
    (List.length (Tor_prefix.entries tp));
  List.iter
    (fun e -> check_bool "is_tor_prefix" true (Tor_prefix.is_tor_prefix tp e.Tor_prefix.prefix))
    (Tor_prefix.entries tp);
  check_int "relays_per_prefix matches" (Tor_prefix.count tp)
    (List.length (Tor_prefix.relays_per_prefix tp))

(* ---- Path_selection -------------------------------------------------- *)

let test_pick_weighted_bias () =
  let rng = Rng.of_int 8 in
  let mk bw ip =
    Relay.make ~nickname:"r" ~ip:(Ipv4.of_string ip) ~asn:(Asn.of_int 1)
      ~bandwidth:bw ~flags:[ Relay.Guard ]
  in
  let heavy = mk 900 "10.0.0.1" and light = mk 100 "10.1.0.1" in
  let heavy_count = ref 0 in
  for _ = 1 to 5000 do
    if Relay.equal (Path_selection.pick_weighted ~rng [ heavy; light ]) heavy then
      incr heavy_count
  done;
  let frac = float_of_int !heavy_count /. 5000. in
  check_bool "bandwidth weighting holds" true (Float.abs (frac -. 0.9) < 0.03)

let test_conflict_rule () =
  let mk ip =
    Relay.make ~nickname:"r" ~ip:(Ipv4.of_string ip) ~asn:(Asn.of_int 1)
      ~bandwidth:10 ~flags:[]
  in
  check_bool "same /16 conflicts" true
    (Path_selection.conflict (mk "10.0.0.1") (mk "10.0.255.9"));
  check_bool "different /16 ok" false
    (Path_selection.conflict (mk "10.0.0.1") (mk "10.1.0.1"))

let test_pick_guards () =
  let rng, _, _, consensus = setup 9 in
  let guards = Path_selection.pick_guards ~rng consensus ~n:3 in
  check_int "three guards" 3 (List.length guards);
  List.iter (fun g -> check_bool "guard flagged" true (Relay.is_guard g)) guards;
  (* pairwise no conflicts *)
  List.iteri
    (fun i a ->
       List.iteri
         (fun j b ->
            if i < j then
              check_bool "diverse /16s" false (Path_selection.conflict a b))
         guards)
    guards

let test_build_circuit () =
  let rng, _, _, consensus = setup 10 in
  let guards = Path_selection.pick_guards ~rng consensus ~n:3 in
  for _ = 1 to 50 do
    let c = Path_selection.build_circuit ~rng consensus ~guards in
    check_bool "guard from set" true
      (List.exists (Relay.equal c.Path_selection.guard) guards);
    check_bool "exit flagged" true (Relay.is_exit c.Path_selection.exit);
    check_bool "no conflicts" false
      (Path_selection.conflict c.Path_selection.guard c.Path_selection.exit
       || Path_selection.conflict c.Path_selection.guard c.Path_selection.middle
       || Path_selection.conflict c.Path_selection.middle c.Path_selection.exit)
  done

let test_client_guard_rotation () =
  let rng, _, addressing, consensus = setup 11 in
  let ip = Addressing.address_in ~rng addressing (Asn.of_int 100) in
  let client =
    Path_selection.make_client ~rng consensus ~id:0 ~asn:(Asn.of_int 100) ~ip 0.
  in
  check_int "three guards by default" 3 (List.length client.Path_selection.guard_set);
  let rotated =
    Path_selection.rotate_guards_if_due ~rng consensus
      ~rotation_period:(30. *. 86400.) ~now:(10. *. 86400.) client
  in
  check_bool "not due yet" false rotated;
  let rotated =
    Path_selection.rotate_guards_if_due ~rng consensus
      ~rotation_period:(30. *. 86400.) ~now:(31. *. 86400.) client
  in
  check_bool "rotates when due" true rotated;
  check_bool "timestamp updated" true
    (client.Path_selection.guards_chosen_at = 31. *. 86400.)

(* ---- Consensus dynamics ----------------------------------------------- *)

let dynamics_for seed ~n_epochs =
  let rng, g, addressing, base = setup seed in
  let cd =
    Consensus_dynamics.generate ~rng:(Rng.split rng)
      ~gen:Consensus.small_params ~n_epochs g addressing base
  in
  (base, cd)

(* Conservation: epoch 0 is the base verbatim, and every later epoch's
   population is exactly the previous one plus arrivals minus
   departures — relays never appear or vanish unaccounted. *)
let prop_epoch_conservation =
  QCheck.Test.make ~name:"epoch populations conserve joins and departures"
    ~count:10 QCheck.(int_bound 10_000)
    (fun seed ->
       let base, cd = dynamics_for seed ~n_epochs:8 in
       let n i = Consensus.n_relays (Consensus_dynamics.at cd i).Consensus_dynamics.consensus in
       let ok0 =
         n 0 = Consensus.n_relays base
         && (Consensus_dynamics.at cd 0).Consensus_dynamics.joined = []
         && (Consensus_dynamics.at cd 0).Consensus_dynamics.departed = []
       in
       let rec check i =
         if i >= Consensus_dynamics.n_epochs cd then true
         else
           let e = Consensus_dynamics.at cd i in
           n i = n (i - 1)
                 + List.length e.Consensus_dynamics.joined
                 - List.length e.Consensus_dynamics.departed
           && check (i + 1)
       in
       ok0 && check 1)

(* Guard refresh against a moving epoch: the refreshed set has the same
   size, every member comes from the new epoch's guard pool, surviving
   guards keep their identity (same IP — only the consensus record moves),
   and the reported replacement count is exactly the number of departed
   guards. *)
let prop_refresh_guards_against_epochs =
  QCheck.Test.make ~name:"refresh_guards tracks epoch departures exactly"
    ~count:10 QCheck.(int_bound 10_000)
    (fun seed ->
       let _, cd = dynamics_for seed ~n_epochs:6 in
       let rng = Rng.of_int (seed + 77) in
       let epoch0 = (Consensus_dynamics.at cd 0).Consensus_dynamics.consensus in
       let guards = ref (Path_selection.pick_guards ~rng epoch0 ~n:3) in
       let ok = ref true in
       for i = 1 to Consensus_dynamics.n_epochs cd - 1 do
         let c = (Consensus_dynamics.at cd i).Consensus_dynamics.consensus in
         let pool = Consensus.guards c in
         let departed =
           List.filter
             (fun g -> not (List.exists (Relay.equal g) pool))
             !guards
         in
         let refreshed, replaced = Path_selection.refresh_guards ~rng c !guards in
         if List.length refreshed <> List.length !guards then ok := false;
         if replaced <> List.length departed then ok := false;
         List.iter
           (fun g ->
              if not (List.exists (Relay.equal g) pool) then ok := false)
           refreshed;
         List.iter
           (fun g ->
              if not (List.exists (Relay.equal g) departed
                      || List.exists (Relay.equal g) refreshed)
              then ok := false)
           !guards;
         guards := refreshed
       done;
       !ok)

(* Golden: 24 epochs from seed 7 render to one pinned digest — the
   byte-stability witness for the whole generator (any change to the draw
   order, the site machinery or the rendering shows up here). *)
let test_consensus_dynamics_golden () =
  let _, cd = dynamics_for 7 ~n_epochs:24 in
  let digest = Digest.to_hex (Digest.string (Consensus_dynamics.to_string cd)) in
  Alcotest.(check string) "24-epoch rendering digest"
    "4cacffc178f4f278cbc736be6317058c" digest

(* The golden above renders only headers and the joined/departed lines;
   this one pins every epoch's whole roster, survivors' drifted
   bandwidths included. *)
let test_consensus_dynamics_epochs_golden () =
  let _, cd = dynamics_for 7 ~n_epochs:24 in
  let rosters =
    List.init 24 (fun i ->
        Consensus.to_string (Consensus_dynamics.at cd i).Consensus_dynamics.consensus)
  in
  Alcotest.(check string) "24-epoch roster digest"
    "e3e73a9192fbff09797824cd802bc730"
    (Digest.to_hex (Digest.string (String.concat "" rosters)))

let test_consensus_dynamics_time_index () =
  let _, cd = dynamics_for 7 ~n_epochs:4 in
  check_int "negative clamps to 0" 0 (Consensus_dynamics.epoch_of_time cd (-5.));
  check_int "mid-epoch" 1 (Consensus_dynamics.epoch_of_time cd 3_700.);
  check_int "past the end clamps" 3
    (Consensus_dynamics.epoch_of_time cd 1e9);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Consensus_dynamics.at: epoch out of range")
    (fun () -> ignore (Consensus_dynamics.at cd 4))

(* A NaN time has no epoch, and times past the int range still clamp to
   the last one. *)
let test_consensus_dynamics_non_finite_time () =
  let _, cd = dynamics_for 7 ~n_epochs:4 in
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Consensus_dynamics.epoch_of_time: NaN time")
    (fun () -> ignore (Consensus_dynamics.epoch_of_time cd Float.nan));
  check_int "infinity clamps" 3
    (Consensus_dynamics.epoch_of_time cd Float.infinity);
  check_int "past int range clamps" 3
    (Consensus_dynamics.epoch_of_time cd 1e300)

(* Every comparison in [check_params] is false on NaN: each field must be
   checked for finiteness first, under its usual message. *)
let test_consensus_dynamics_non_finite_params () =
  let p = Consensus_dynamics.default_params in
  let rejects what msg p =
    Alcotest.check_raises what (Invalid_argument ("Consensus_dynamics: " ^ msg))
      (fun () -> Consensus_dynamics.check_params p)
  in
  rejects "epoch_seconds nan" "epoch_seconds <= 0"
    { p with Consensus_dynamics.epoch_seconds = Float.nan };
  rejects "epoch_seconds inf" "epoch_seconds <= 0"
    { p with Consensus_dynamics.epoch_seconds = Float.infinity };
  rejects "arrival_rate nan" "arrival_rate < 0"
    { p with Consensus_dynamics.arrival_rate = Float.nan };
  rejects "departure_hazard nan" "departure_hazard outside [0, 1)"
    { p with Consensus_dynamics.departure_hazard = Float.nan };
  rejects "bw_drift_sigma inf" "bw_drift_sigma < 0"
    { p with Consensus_dynamics.bw_drift_sigma = Float.infinity };
  rejects "guard_fraction nan" "guard_fraction outside [0, 1]"
    { p with Consensus_dynamics.guard_fraction = Float.nan };
  rejects "exit_fraction nan" "exit_fraction outside [0, 1]"
    { p with Consensus_dynamics.exit_fraction = Float.nan };
  Consensus_dynamics.check_params p;
  Consensus_dynamics.check_params Consensus_dynamics.heavy_params

(* The list-based generator the diff-over-a-shared-roster one replaced:
   every epoch rebuilds the whole roster (partition, drift map, append)
   and its consensus eagerly. Kept verbatim, draw for draw, as the
   reference the stored diffs must reproduce. *)
let reference_epochs ~rng ~(params : Consensus_dynamics.params) ~gen ~n_epochs
    g addressing (base : Consensus.t) =
  let poisson lambda =
    if lambda <= 0. then 0
    else begin
      let l = exp (-.lambda) in
      let rec go k p =
        let p = p *. Rng.float rng 1.0 in
        if p <= l then k else go (k + 1) p
      in
      go 0 1.0
    end
  in
  let arrival_flags () =
    let guard = Rng.float rng 1.0 < params.Consensus_dynamics.guard_fraction in
    let exit = Rng.float rng 1.0 < params.Consensus_dynamics.exit_fraction in
    match (guard, exit) with
    | true, true -> [ Relay.Guard; Relay.Exit; Relay.Fast; Relay.Stable ]
    | true, false -> [ Relay.Guard; Relay.Fast; Relay.Stable ]
    | false, true -> [ Relay.Exit; Relay.Fast ]
    | false, false -> [ Relay.Fast ]
  in
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
  let next_nick = ref (Consensus.n_relays base) in
  let new_relay () =
    let asn = Consensus.pick_site ~rng sites in
    let ip = fresh_ip asn in
    let bandwidth = Consensus.sample_bandwidth ~rng gen in
    let flags = arrival_flags () in
    let nickname = Printf.sprintf "relay%04d" !next_nick in
    incr next_nick;
    Relay.make ~nickname ~ip ~asn ~bandwidth ~flags
  in
  let current = ref (Array.to_list base.Consensus.relays) in
  Array.init n_epochs (fun i ->
      if i = 0 then
        { Consensus_dynamics.consensus =
            Consensus.make ~valid_after:0. base.Consensus.relays;
          joined = [];
          departed = [] }
      else begin
        let stay, departed =
          List.partition
            (fun _ -> Rng.float rng 1.0 >= params.Consensus_dynamics.departure_hazard)
            !current
        in
        let stay =
          List.map
            (fun (r : Relay.t) ->
               let f =
                 exp (Rng.normal rng ~mu:0. ~sigma:params.Consensus_dynamics.bw_drift_sigma)
               in
               { r with
                 Relay.bandwidth =
                   max 1 (int_of_float (float_of_int r.Relay.bandwidth *. f)) })
            stay
        in
        let joined =
          List.init (poisson params.Consensus_dynamics.arrival_rate) (fun _ -> new_relay ())
        in
        current := stay @ joined;
        { Consensus_dynamics.consensus =
            Consensus.make
              ~valid_after:(float_of_int i *. params.Consensus_dynamics.epoch_seconds)
              (Array.of_list !current);
          joined;
          departed }
      end)

(* Every epoch, asked for out of order (last, then 0, then the middle),
   equals the reference's: roster rendering, valid-after, pools and their
   weights, arrivals and departures. *)
let test_consensus_dynamics_matches_reference () =
  let small seed =
    let _, g, addressing, base = setup seed in
    (Printf.sprintf "small seed %d" seed, g, addressing, base,
     Consensus.small_params, 120)
  in
  let paper =
    let g, addressing, base = Lazy.force paper_world in
    ("paper seed 1", g, addressing, base, Consensus.paper_params, 48)
  in
  List.iter
    (fun (world, g, addressing, base, gen, n_epochs) ->
       List.iter
         (fun (pname, params) ->
            let what = Printf.sprintf "%s, %s params" world pname in
            let cd =
              Consensus_dynamics.generate ~rng:(Rng.of_int 31) ~params ~gen
                ~n_epochs g addressing base
            in
            let expected =
              reference_epochs ~rng:(Rng.of_int 31) ~params ~gen ~n_epochs
                g addressing base
            in
            check_int (what ^ ": epochs") n_epochs (Consensus_dynamics.n_epochs cd);
            List.iter
              (fun i ->
                 let what = Printf.sprintf "%s, epoch %d" what i in
                 let e = Consensus_dynamics.at cd i and r = expected.(i) in
                 let c = e.Consensus_dynamics.consensus
                 and rc = r.Consensus_dynamics.consensus in
                 Alcotest.(check string) (what ^ ": roster")
                   (Consensus.to_string rc) (Consensus.to_string c);
                 check_bool (what ^ ": valid-after") true
                   (c.Consensus.valid_after = rc.Consensus.valid_after);
                 check_bool (what ^ ": guard pool") true
                   (c.Consensus.guard_pool = rc.Consensus.guard_pool
                    && c.Consensus.guard_weights = rc.Consensus.guard_weights);
                 check_bool (what ^ ": exit pool") true
                   (c.Consensus.exit_pool = rc.Consensus.exit_pool
                    && c.Consensus.exit_weights = rc.Consensus.exit_weights);
                 check_bool (what ^ ": joined") true
                   (e.Consensus_dynamics.joined = r.Consensus_dynamics.joined);
                 check_bool (what ^ ": departed") true
                   (e.Consensus_dynamics.departed = r.Consensus_dynamics.departed))
              ((n_epochs - 1) :: List.init (n_epochs - 1) Fun.id))
         [ ("default", Consensus_dynamics.default_params);
           ("heavy", Consensus_dynamics.heavy_params) ])
    [ small 1; small 2; small 3; paper ]

let prop_circuits_always_valid =
  QCheck.Test.make ~name:"circuits never violate diversity" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
       let rng, _, _, consensus = setup seed in
       let guards = Path_selection.pick_guards ~rng consensus ~n:3 in
       let c = Path_selection.build_circuit ~rng consensus ~guards in
       not
         (Path_selection.conflict c.Path_selection.guard c.Path_selection.exit
          || Path_selection.conflict c.Path_selection.guard c.Path_selection.middle
          || Path_selection.conflict c.Path_selection.middle c.Path_selection.exit))

let prop_consensus_counts_exact =
  QCheck.Test.make ~name:"generated consensus always hits the pinned counts"
    ~count:8 QCheck.(int_bound 10_000)
    (fun seed ->
       let _, _, _, consensus = setup seed in
       let p = Consensus.small_params in
       Consensus.n_relays consensus = p.Consensus.n_relays
       && List.length (Consensus.guards consensus) = p.Consensus.n_guards
       && List.length (Consensus.exits consensus) = p.Consensus.n_exits)

let prop_serialization_stable =
  QCheck.Test.make ~name:"consensus serialization is a fixpoint" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
       let _, _, _, consensus = setup seed in
       let s1 = Consensus.to_string consensus in
       let s2 = Consensus.to_string (Consensus.of_string s1) in
       s1 = s2)

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)

let () =
  Alcotest.run "qs_tor"
    [ ("relay",
       [ Alcotest.test_case "flags" `Quick test_relay_flags;
         Alcotest.test_case "flag strings" `Quick test_relay_flag_strings ]);
      ("consensus",
       [ Alcotest.test_case "flag counts" `Quick test_consensus_counts;
         Alcotest.test_case "param validation" `Quick test_consensus_params_validated;
         Alcotest.test_case "serialization roundtrip" `Quick
           test_consensus_serialization_roundtrip;
         Alcotest.test_case "hosting concentration" `Quick
           test_consensus_relays_in_hosting;
         Alcotest.test_case "deterministic" `Quick test_consensus_deterministic ]);
      ("sampling_pools",
       [ Alcotest.test_case "generate pools = filters" `Quick test_pools_generate;
         Alcotest.test_case "of_string pools = filters" `Quick test_pools_of_string;
         Alcotest.test_case "living epoch pools = filters" `Quick test_pools_living;
         Alcotest.test_case "pool draws = pick_weighted" `Quick
           test_pick_pools_match_list;
         Alcotest.test_case "empty pool rejected" `Quick test_pick_empty_pool ]);
      ("tor_prefix",
       [ Alcotest.test_case "relay mapping" `Quick test_tor_prefix_mapping;
         Alcotest.test_case "entries consistent" `Quick
           test_tor_prefix_entries_consistent ]);
      ("consensus_dynamics",
       [ Alcotest.test_case "24-epoch golden digest" `Quick
           test_consensus_dynamics_golden;
         Alcotest.test_case "24-epoch roster digest" `Quick
           test_consensus_dynamics_epochs_golden;
         Alcotest.test_case "epochs = list-based reference" `Quick
           test_consensus_dynamics_matches_reference;
         Alcotest.test_case "time indexing" `Quick
           test_consensus_dynamics_time_index;
         Alcotest.test_case "non-finite time rejected" `Quick
           test_consensus_dynamics_non_finite_time;
         Alcotest.test_case "non-finite params rejected" `Quick
           test_consensus_dynamics_non_finite_params ]
       @ qsuite
           [ prop_epoch_conservation; prop_refresh_guards_against_epochs ]);
      ("path_selection",
       [ Alcotest.test_case "bandwidth weighting" `Quick test_pick_weighted_bias;
         Alcotest.test_case "/16 conflict rule" `Quick test_conflict_rule;
         Alcotest.test_case "guard sets" `Quick test_pick_guards;
         Alcotest.test_case "circuit constraints" `Quick test_build_circuit;
         Alcotest.test_case "guard rotation" `Quick test_client_guard_rotation ]
       @ qsuite [ prop_circuits_always_valid ]);
      ("properties",
       qsuite [ prop_consensus_counts_exact; prop_serialization_stable ]) ]
