type config = {
  n_clients : int;
  horizon_days : int;
  f : float;
  n_guards : int;
  rotation_days : int;
  use_guards : bool;
  failure_variants : int;
}

let default_config =
  { n_clients = 40;
    horizon_days = 120;
    f = 0.03;
    n_guards = 3;
    rotation_days = 30;
    use_guards = true;
    failure_variants = 5 }

type outcome = {
  label : string;
  compromised_fraction : float;
  median_day : int option;
  mean_exposed_per_day : float;
  days_to_compromise : int list;
  clients : int;
}

(* Routing outcomes are cached per (origin, variant): clients share them,
   and a day's path is just a forwarding-walk lookup. Every announcement
   here is a plain [Announcement.originate], whose routes depend only on
   the origin (see {!Propagate.Delta}), so one outcome serves all of an
   origin's prefixes. Client simulations run as pool tasks, so the memo
   table is a per-domain resource — each domain fills its own copy of the
   same pure function, which costs a few redundant recomputes but never a
   cross-domain race (and never changes a result: the cache is invisible
   to the outputs). *)
type routing_pool = {
  indexed : As_graph.Indexed.t;
  variants : Link_set.t array;    (* variants.(0) is the healthy state *)
  caches : (int, Propagate.t) Hashtbl.t Pool.per_domain;
      (* keyed by [origin * |variants| + variant] *)
}

let make_pool ~rng (scenario : Scenario.t) ~failure_variants =
  let links = As_graph.core_links scenario.Scenario.graph in
  let indexed = scenario.Scenario.indexed in
  let variants =
    Array.init (failure_variants + 1) (fun i ->
        if i = 0 || Array.length links = 0 then Link_set.empty
        else
          let a, b = Rng.pick rng links in
          Link_set.of_list indexed [ (a, b) ])
  in
  { indexed; variants;
    caches = Pool.per_domain (fun () -> Hashtbl.create 1024) }

let outcome_for pool ann variant =
  let cache = Pool.get pool.caches in
  let key =
    (Asn.to_int ann.Announcement.origin * Array.length pool.variants)
    + variant
  in
  match Hashtbl.find_opt cache key with
  | Some o -> o
  | None ->
      let o =
        Propagate.compute pool.indexed ~failed:pool.variants.(variant) [ ann ]
      in
      Hashtbl.replace cache key o;
      o

let walk_set pool ann variant from_as =
  match Propagate.forwarding_path (outcome_for pool ann variant) from_as with
  | Some walk -> Asn.Set.of_list walk
  | None -> Asn.Set.empty

let draw_malicious ~rng ~f scenario =
  List.fold_left
    (fun acc a ->
       if Rng.float rng 1.0 < f then Asn.Set.add a acc else acc)
    Asn.Set.empty
    (As_graph.ases scenario.Scenario.graph)

let day_seconds = 86_400.

(* One client's daily-communication history, self-contained so it can run
   as a pool task: draws come only from [rng] (this client's sibling
   stream) and routing goes through the per-domain caches of [pool].
   Under a living consensus ([?living]) every day consults the epoch
   covering it instead of the frozen snapshot, and departed guards are
   replaced before the day's circuit; with [living = None] the code path
   and RNG draw sequence are exactly the frozen ones. *)
let simulate_client ~rng ~config ~pool ~malicious ?living
    (scenario : Scenario.t) =
  let consensus_at d =
    match living with
    | None -> scenario.Scenario.consensus
    | Some cd ->
        Consensus_dynamics.at_time cd (float_of_int (d - 1) *. day_seconds)
  in
  let client_as = Scenario.random_client_as ~rng scenario in
  let destination = Scenario.random_client_as ~rng scenario in
  let dest_ann =
    match Addressing.prefixes_of scenario.Scenario.addressing destination with
    | p :: _ -> Announcement.originate destination p
    | [] ->
        (* every AS has prefixes by construction *)
        invalid_arg "Long_term: destination AS originates no prefix"
  in
  let guards =
    ref (Path_selection.pick_guards ~rng (consensus_at 1) ~n:config.n_guards)
  in
  let guards_age = ref 0 in
  let compromised = ref None in
  let exposed_total = ref 0. and exposed_days = ref 0 in
  let day = ref 1 in
  while !compromised = None && !day <= config.horizon_days do
    let consensus = consensus_at !day in
    (* under a living consensus, departed guards are replaced first *)
    if living <> None && config.use_guards then
      guards := fst (Path_selection.refresh_guards ~rng consensus !guards);
    (* today's entry relay *)
    let entry =
      if config.use_guards then Rng.pick_list rng !guards
      else Path_selection.pick_guard ~rng consensus
    in
    let exit = Path_selection.pick_exit ~rng consensus in
    let variant = Rng.int rng (Array.length pool.variants) in
    (match Scenario.guard_announcement scenario entry with
     | None -> ()
     | Some entry_ann ->
         let entry_set = walk_set pool entry_ann variant client_as in
         let exit_set = walk_set pool dest_ann variant exit.Relay.asn in
         exposed_total :=
           !exposed_total +. float_of_int (Asn.Set.cardinal entry_set);
         incr exposed_days;
         let sees set = not (Asn.Set.is_empty (Asn.Set.inter malicious set)) in
         if sees entry_set && sees exit_set then compromised := Some !day);
    (* guard rotation *)
    incr guards_age;
    if config.use_guards && !guards_age >= config.rotation_days then begin
      guards := Path_selection.pick_guards ~rng consensus ~n:config.n_guards;
      guards_age := 0
    end;
    incr day
  done;
  (!compromised, !exposed_total, !exposed_days)

(* A living consensus for [scenario] covering [horizon_days]:
   hourly-or-whatever [params.epoch_seconds] epochs derived from the
   scenario's frozen snapshot, seeded off the scenario's dedicated
   "consensus-epochs" stream, so it is a pure function of (scenario,
   params, horizon). *)
let living_consensus ?(params = Consensus_dynamics.default_params)
    ~horizon_days (scenario : Scenario.t) =
  let gen =
    match scenario.Scenario.size with
    | Scenario.Paper -> Consensus.paper_params
    | Scenario.Small -> Consensus.small_params
  in
  let n_epochs =
    max 1
      (int_of_float
         (Float.ceil
            (float_of_int horizon_days *. day_seconds /. params.epoch_seconds)))
  in
  Consensus_dynamics.generate
    ~rng:(Scenario.rng_for scenario "consensus-epochs")
    ~params ~gen ~n_epochs scenario.Scenario.graph
    scenario.Scenario.addressing scenario.Scenario.consensus

let run ~rng ?(config = default_config) ?pool ?malicious ?living ?exec
    (scenario : Scenario.t) =
  let workers = match exec with Some p -> p | None -> Pool.default () in
  let pool =
    match pool with
    | Some p -> p
    | None -> make_pool ~rng scenario ~failure_variants:config.failure_variants
  in
  (* One colluding malicious-AS draw shared by all clients of this run. *)
  let malicious =
    match malicious with
    | Some m -> m
    | None -> draw_malicious ~rng ~f:config.f scenario
  in
  (* Clients are the parallel unit: each gets its own sibling stream, and
     the per-client triples are reduced in client order below, so the
     outcome is identical at any worker count. *)
  let per_client =
    Pool.map_seeded workers ~rng
      (fun rng () ->
         simulate_client ~rng ~config ~pool ~malicious ?living scenario)
      (Array.make config.n_clients ())
  in
  let first_compromise = ref [] in
  let exposed_total = ref 0. and exposed_days = ref 0 in
  Array.iter
    (fun (compromised, exposed, days) ->
       first_compromise := compromised :: !first_compromise;
       exposed_total := !exposed_total +. exposed;
       exposed_days := !exposed_days + days)
    per_client;
  let compromised_days = List.filter_map Fun.id !first_compromise in
  let label =
    if not config.use_guards then "no guards (fresh relay daily)"
    else if config.rotation_days >= config.horizon_days then
      Printf.sprintf "%d guard%s, never rotated" config.n_guards
        (if config.n_guards = 1 then "" else "s")
    else
      Printf.sprintf "%d guard%s / %d days" config.n_guards
        (if config.n_guards = 1 then "" else "s")
        config.rotation_days
  in
  { label;
    compromised_fraction =
      float_of_int (List.length compromised_days)
      /. float_of_int (max 1 config.n_clients);
    median_day =
      (match List.sort Int.compare compromised_days with
       | [] -> None
       | days -> Some (List.nth days (List.length days / 2)));
    mean_exposed_per_day =
      !exposed_total /. float_of_int (max 1 !exposed_days);
    days_to_compromise = compromised_days;
    clients = config.n_clients }

let merge label outcomes =
  let clients = List.fold_left (fun acc o -> acc + o.clients) 0 outcomes in
  let days = List.concat_map (fun o -> o.days_to_compromise) outcomes in
  let exposed =
    match outcomes with
    | [] -> 0.
    | os ->
        List.fold_left (fun acc o -> acc +. o.mean_exposed_per_day) 0. os
        /. float_of_int (List.length os)
  in
  { label;
    compromised_fraction =
      float_of_int (List.length days) /. float_of_int (max 1 clients);
    median_day =
      (match List.sort Int.compare days with
       | [] -> None
       | d -> Some (List.nth d (List.length d / 2)));
    mean_exposed_per_day = exposed;
    days_to_compromise = days;
    clients }

let compare_designs ~rng ?(horizon_days = 120) ?(f = 0.05) ?(n_draws = 10)
    ?exec scenario =
  Span.with_ ~name:"long_term.compare_designs" @@ fun () ->
  (* The adversary draw dominates the variance (a handful of malicious ASes
     either sit on transit paths or do not), so we average each design over
     [n_draws] independent adversaries, all sharing one routing pool. *)
  let base = { default_config with horizon_days; f; n_clients = 8 } in
  let pool = make_pool ~rng scenario ~failure_variants:base.failure_variants in
  let designs =
    [ { base with use_guards = false };
      { base with n_guards = 3; rotation_days = 30 };
      { base with n_guards = 1; rotation_days = 270 };
      { base with n_guards = 3; rotation_days = max_int } ]
  in
  let per_draw =
    List.init n_draws (fun _ ->
        let malicious = draw_malicious ~rng ~f scenario in
        List.map
          (fun config -> run ~rng ~config ~pool ~malicious ?exec scenario)
          designs)
  in
  List.mapi
    (fun i _ ->
       let outcomes = List.map (fun draw -> List.nth draw i) per_draw in
       merge (List.nth outcomes 0).label outcomes)
    designs

let print ppf outcomes =
  Format.fprintf ppf "M2: long-term anonymity vs guard design (§2)@.";
  Format.fprintf ppf "  %-32s %-22s %-12s %-14s@."
    "design" "compromised in horizon" "median day" "entry ASes/day";
  List.iter
    (fun o ->
       Format.fprintf ppf "  %-32s %-22s %-12s %-14.1f@."
         o.label
         (Printf.sprintf "%.0f%%" (100. *. o.compromised_fraction))
         (match o.median_day with Some d -> string_of_int d | None -> "-")
         o.mean_exposed_per_day)
    outcomes;
  Format.fprintf ppf
    "  -> guards slow the malicious-relay game, but AS-level exposure keeps@.";
  Format.fprintf ppf
    "     accruing: the paths under a fixed guard still change (§3.1).@."
