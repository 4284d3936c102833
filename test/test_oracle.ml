(* An independent oracle for Gao-Rexford propagation.

   [naive] below is a deliberately naive reference engine: a synchronous
   path-vector iteration over ASN-keyed maps, with no workspace, no flat
   arrays, no stages and no incremental repair. Every round, each AS
   re-selects the best route among what its neighbours export to it
   (customer > peer > provider, then shortest path, then lowest next-hop
   ASN), rejecting paths that already contain it, until no AS changes.
   Under Gao-Rexford conditions (acyclic provider hierarchy, the generator
   below guarantees it) the system has a unique stable assignment, so the
   staged engine in [Propagate.compute] must land on exactly the same
   routes.

   The property varies every announcement shape the engine honours:
   failed links, prepends, 1-3 competing origins (hijacks and
   interception-style forged suffixes), [export_to] community scoping,
   [max_radius] and route-origin validation. Per AS it compares the route
   class, the path bytes and [winning_announcement].

   The incremental engine ([Propagate.Delta]) answers to the same oracle:
   one retained state is driven through a random sequence of link
   failures, restores and prepend toggles, and every repaired outcome
   must equal the naive fixed point of the configuration it reached.

   Both engines also obey an order-independence law. [As_graph] keeps
   each adjacency list in reverse insertion order, so rebuilding a
   graph from a shuffled link list changes the order in which every
   stage and every repair wave scans neighbours; the routes must not
   change.

   The session-reset filter has its own naive reference ([naive_reset]
   below): a per-session rescan of every window, compared with
   [Session_reset] (driven by push alone and by advance-then-push) on
   random streams for the pass/drop sets, the global emission order and
   the detected transfers. *)

let asn = Asn.of_int
let pfx = Prefix.of_string "10.0.0.0/24"

type nroute = {
  cls : int;            (* 3 origin, 2 customer, 1 peer, 0 provider *)
  path : Asn.t list;    (* as exported: this AS first, claimed origin last *)
  ann : int;            (* index of the announcement it descends from *)
  depth : int;          (* hops from the originating AS *)
}

let rec last = function
  | [ x ] -> x
  | _ :: rest -> last rest
  | [] -> invalid_arg "last"

let naive g ?(failed = Link_set.empty) ?rov anns =
  let anns = Array.of_list anns in
  let invalid k =
    match rov with
    | None -> false
    | Some (table, _) ->
        Rpki.validate table anns.(k).Announcement.prefix
          (last (Announcement.announced_path anns.(k)))
        = Rpki.Invalid
  in
  let deploys v =
    match rov with None -> false | Some (_, d) -> Asn.Set.mem v d
  in
  (* An origin always keeps its own announcement: the shortest claimed
     path among the ones it makes, the first on a tie. *)
  let own v =
    let best = ref None in
    Array.iteri
      (fun k (a : Announcement.t) ->
         if Asn.equal a.Announcement.origin v then begin
           let path = Announcement.announced_path a in
           match !best with
           | Some r when List.length r.path <= List.length path -> ()
           | _ -> best := Some { cls = 3; path; ann = k; depth = 0 }
         end)
      anns;
    !best
  in
  (* Does [u], holding [r], export it to neighbour [v] (what [v] is to
     [u] is [rel])? *)
  let exports u r v rel =
    (not (Link_set.mem u v failed))
    && (r.cls >= 2 || Relationship.equal rel Relationship.Customer)
    && (match anns.(r.ann).Announcement.max_radius with
        | Some radius -> r.depth < radius
        | None -> true)
    && (r.cls <> 3
        || match anns.(r.ann).Announcement.export_to with
        | None -> true
        | Some set -> Asn.Set.mem v set)
  in
  let accepts v r =
    (not (List.exists (Asn.equal v) r.path))
    && not (invalid r.ann && deploys v)
  in
  let better (c, p) = function
    | None -> true
    | Some (c', p') ->
        c > c'
        || (c = c'
            && (List.length p < List.length p'
                || (List.length p = List.length p'
                    && Asn.compare (List.hd p) (List.hd p') < 0)))
  in
  let select cur v =
    match own v with
    | Some r -> Some r
    | None ->
        let best = ref None in
        List.iter
          (fun (u, rel_u) ->
             match Asn.Map.find_opt u cur with
             | Some r when exports u r v (Relationship.invert rel_u)
                           && accepts v r ->
                 let cls =
                   match rel_u with
                   | Relationship.Customer -> 2
                   | Relationship.Peer -> 1
                   | Relationship.Provider -> 0
                 in
                 if better (cls, r.path)
                      (Option.map (fun b -> (b.cls, List.tl b.path)) !best)
                 then
                   best :=
                     Some { cls; path = v :: r.path; ann = r.ann;
                            depth = r.depth + 1 }
             | Some _ | None -> ())
          (As_graph.neighbors g v);
        !best
  in
  let ases = As_graph.ases g in
  let round cur =
    List.fold_left
      (fun m v ->
         match select cur v with
         | Some r -> Asn.Map.add v r m
         | None -> m)
      Asn.Map.empty ases
  in
  let rec iterate cur budget =
    if budget = 0 then failwith "naive path-vector did not converge";
    let next = round cur in
    if Asn.Map.equal ( = ) next cur then cur else iterate next (budget - 1)
  in
  iterate Asn.Map.empty ((4 * List.length ases) + 8)

(* A random valley-free topology: ASes get a random rank, and every
   provider outranks its customers, so the customer-provider digraph is
   acyclic. ASNs are scattered so the lowest-ASN tie-break is exercised
   independently of insertion order. *)
let random_graph rng =
  let n = 3 + Rng.int rng 10 in
  let pool = Array.init 60 (fun i -> i + 1) in
  Rng.shuffle rng pool;
  let ranked = Array.sub pool 0 n in
  let g = As_graph.create () in
  Array.iter
    (fun a ->
       As_graph.add_as g (asn a)
         { As_graph.name = ""; tier = As_graph.Stub; hosting_weight = 0. })
    ranked;
  let p_link = 0.2 +. Rng.float rng 0.4 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng 1.0 < p_link then
        if Rng.float rng 1.0 < 0.7 then
          As_graph.add_provider_customer g ~provider:(asn ranked.(i))
            ~customer:(asn ranked.(j))
        else As_graph.add_peering g (asn ranked.(i)) (asn ranked.(j))
    done
  done;
  g

type case = {
  graph : As_graph.t;
  failed : Link_set.t;
  anns : Announcement.t list;
  rov : (Rpki.t * Asn.Set.t) option;
}

let random_case seed =
  let rng = Rng.of_int seed in
  let graph = random_graph rng in
  let ases = Array.of_list (As_graph.ases graph) in
  let failed =
    List.fold_left
      (fun s (a, b, _) -> if Rng.float rng 1.0 < 0.15 then Link_set.add a b s else s)
      Link_set.empty (As_graph.links graph)
  in
  let victim = Rng.pick rng ases in
  let shape (a : Announcement.t) =
    let a = Announcement.with_prepend (Rng.int rng 3) a in
    let a =
      match As_graph.neighbors graph a.Announcement.origin with
      | (_ :: _ as ns) when Rng.float rng 1.0 < 0.2 ->
          let scope =
            List.filter (fun _ -> Rng.bool rng) (List.map fst ns)
          in
          Announcement.with_export_to (Asn.Set.of_list scope) a
      | _ -> a
    in
    if Rng.float rng 1.0 < 0.2 then
      Announcement.with_max_radius (1 + Rng.int rng 3) a
    else a
  in
  let legit = shape (Announcement.originate victim pfx) in
  let competitors =
    List.init (Rng.int rng 3) (fun _ ->
        let attacker = Rng.pick rng ases in
        let a = Announcement.originate attacker pfx in
        (* Interception-style: the attacker forges the victim as the
           origin, keeping the path's claimed origin valid. *)
        let a =
          if Rng.bool rng && not (Asn.equal attacker victim) then
            Announcement.with_fake_suffix [ victim ] a
          else a
        in
        shape a)
  in
  let rov =
    if Rng.float rng 1.0 < 0.3 then
      let table =
        Rpki.add_roa Rpki.empty
          { Rpki.roa_prefix = pfx; max_length = 24; authorized = victim }
      in
      let deployers =
        Array.to_list ases |> List.filter (fun _ -> Rng.bool rng)
      in
      Some (table, Asn.Set.of_list deployers)
    else None
  in
  { graph; failed; anns = legit :: competitors; rov }

(* Per AS: route class, path bytes and winning announcement. *)
let matches graph fast slow =
  let code = function
    | Some `Origin -> 3
    | Some `Customer -> 2
    | Some `Peer -> 1
    | Some `Provider -> 0
    | None -> -1
  in
  List.for_all
    (fun a ->
       let expect = Asn.Map.find_opt a slow in
       code (Propagate.route_class_at fast a)
       = (match expect with Some r -> r.cls | None -> -1)
       && Option.map (fun (r : Route.t) -> r.Route.as_path)
            (Propagate.route_at fast a)
          = Option.map (fun r -> r.path) expect
       && Propagate.winning_announcement fast a
          = Option.map (fun r -> r.ann) expect)
    (As_graph.ases graph)

(* The same graph with its links inserted in a random order (and each
   peering's endpoints in a random order): the same ASes and
   relationships, different adjacency order. *)
let shuffled rng graph =
  let g = As_graph.create () in
  List.iter (fun a -> As_graph.add_as g a (As_graph.info graph a))
    (As_graph.ases graph);
  let links = Array.of_list (As_graph.links graph) in
  Rng.shuffle rng links;
  Array.iter
    (fun (a, b, rel) ->
       match (rel : Relationship.t) with
       | Relationship.Customer ->
           As_graph.add_provider_customer g ~provider:a ~customer:b
       | Relationship.Provider ->
           As_graph.add_provider_customer g ~provider:b ~customer:a
       | Relationship.Peer ->
           if Rng.bool rng then As_graph.add_peering g a b
           else As_graph.add_peering g b a)
    links;
  g

(* Per AS, two outcomes agree on class, path bytes and winning
   announcement. *)
let same_routes graph x y =
  List.for_all
    (fun a ->
       Propagate.route_class_at x a = Propagate.route_class_at y a
       && Option.map (fun (r : Route.t) -> r.Route.as_path)
            (Propagate.route_at x a)
          = Option.map (fun (r : Route.t) -> r.Route.as_path)
              (Propagate.route_at y a)
       && Propagate.winning_announcement x a
          = Propagate.winning_announcement y a)
    (As_graph.ases graph)

let agrees c =
  let ix = As_graph.Indexed.of_graph c.graph in
  matches c.graph
    (Propagate.compute ix ~failed:c.failed ?rov:c.rov c.anns)
    (naive c.graph ~failed:c.failed ?rov:c.rov c.anns)

let prop_oracle =
  QCheck.Test.make ~name:"compute = naive path-vector on random graphs"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed -> agrees (random_case seed))

(* The same law through a reused workspace: scratch left over from a
   different case must never leak into the next outcome. *)
let prop_oracle_workspace =
  let ws = Propagate.Workspace.create () in
  QCheck.Test.make ~name:"workspace compute = naive path-vector" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let c = random_case seed in
       let ix = As_graph.Indexed.of_graph c.graph in
       let fresh = Propagate.compute ix ~failed:c.failed ?rov:c.rov c.anns in
       let reused =
         Propagate.compute ix ~workspace:ws ~failed:c.failed ?rov:c.rov c.anns
       in
       agrees c
       && List.for_all
            (fun a ->
               Propagate.route_at fresh a = Propagate.route_at reused a
               && Propagate.winning_announcement fresh a
                  = Propagate.winning_announcement reused a)
            (As_graph.ases c.graph))

(* One [Delta] state through 5-20 random steps: each fails or restores
   a random link, or toggles the origin's prepend between 0 and 2. After
   every step the repaired outcome must match [naive] on the
   configuration reached. With [shuffle], a twin state over the same
   graph rebuilt from links shuffled by that seed takes the same steps,
   and its outcome must equal the first's at every step. Returns
   whether every step matched and how many steps were incremental
   repairs rather than rebuilds. *)
let delta_sequence ?shuffle seed =
  let rng = Rng.of_int seed in
  let graph = random_graph rng in
  let ix = As_graph.Indexed.of_graph graph in
  let links = Array.of_list (As_graph.links graph) in
  let origin = Rng.pick rng (Array.of_list (As_graph.ases graph)) in
  let st = Propagate.Delta.create ix in
  let scratch = Propagate.Delta.create_scratch () in
  let twin =
    Option.map
      (fun s ->
         let tix = As_graph.Indexed.of_graph (shuffled (Rng.of_int s) graph) in
         (Propagate.Delta.create tix, Propagate.Delta.create_scratch ()))
      shuffle
  in
  let rec go steps failed prepend ok repairs =
    if steps = 0 || not ok then (ok, repairs)
    else begin
      let failed, prepend =
        if Array.length links > 0 && Rng.float rng 1.0 < 0.7 then
          let a, b, _ = Rng.pick rng links in
          ((if Link_set.mem a b failed then Link_set.remove a b failed
            else Link_set.add a b failed),
           prepend)
        else (failed, 2 - prepend)
      in
      let anns =
        [ Announcement.with_prepend prepend
            (Announcement.originate origin pfx) ]
      in
      let outcome, kind = Propagate.Delta.update st scratch ~failed anns in
      let ok =
        matches graph outcome (naive graph ~failed anns)
        && match twin with
           | None -> true
           | Some (tst, tscratch) ->
               same_routes graph outcome
                 (fst (Propagate.Delta.update tst tscratch ~failed anns))
      in
      let repairs =
        match kind with
        | Propagate.Delta.Steps _ -> repairs + 1
        | Propagate.Delta.Full_rebuild -> repairs
      in
      go (steps - 1) failed prepend ok repairs
    end
  in
  go (5 + Rng.int rng 16) Link_set.empty 0 true 0

let prop_oracle_delta =
  QCheck.Test.make ~name:"delta repair = naive path-vector after random events"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed -> fst (delta_sequence seed))

(* The order-independence law, for both engines: a random case computed
   over its graph and over the graph rebuilt from shuffled links routes
   identically, and so does a [Delta] sequence driven over both. *)
let prop_order_independent =
  QCheck.Test.make ~name:"routes independent of adjacency order" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, shuffle) ->
       let c = random_case seed in
       let outcome g =
         Propagate.compute (As_graph.Indexed.of_graph g) ~failed:c.failed
           ?rov:c.rov c.anns
       in
       same_routes c.graph (outcome c.graph)
         (outcome (shuffled (Rng.of_int shuffle) c.graph))
       && fst (delta_sequence ~shuffle seed))

(* The oracle itself must see the shapes it claims to cover, or the
   property could pass vacuously. *)
let test_generator_covers_shapes () =
  let cases = List.init 400 random_case in
  let count p = List.length (List.filter p cases) in
  let any_ann p c = List.exists p c.anns in
  List.iter
    (fun (name, n) ->
       Alcotest.(check bool) (name ^ " exercised") true (n >= 10))
    [ ("failed links", count (fun c -> not (Link_set.is_empty c.failed)));
      ("prepends", count (any_ann (fun a -> a.Announcement.prepend > 0)));
      ("competing origins", count (fun c -> List.length c.anns >= 2));
      ("three origins", count (fun c -> List.length c.anns = 3));
      ("forged suffix",
       count (any_ann (fun a -> a.Announcement.fake_suffix <> [])));
      ("export_to", count (any_ann (fun a -> a.Announcement.export_to <> None)));
      ("max_radius",
       count (any_ann (fun a -> a.Announcement.max_radius <> None)));
      ("rov", count (fun c -> c.rov <> None)) ];
  (* Likewise the delta sequences must mostly repair, not rebuild. *)
  let repairs =
    List.fold_left (fun n s -> n + snd (delta_sequence s)) 0
      (List.init 100 Fun.id)
  in
  Alcotest.(check bool) "delta repairs exercised" true (repairs >= 500)

(* Hand-checked anchor so the oracle is not only compared with itself:
   the diamond 1 > {2, 3}, 2 ~ 3, {2, 3} > 4. *)
let test_naive_diamond () =
  let g = As_graph.create () in
  List.iter
    (fun i ->
       As_graph.add_as g (asn i)
         { As_graph.name = ""; tier = As_graph.Stub; hosting_weight = 0. })
    [ 1; 2; 3; 4 ];
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 3);
  As_graph.add_peering g (asn 2) (asn 3);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 4);
  As_graph.add_provider_customer g ~provider:(asn 3) ~customer:(asn 4);
  let m = naive g [ Announcement.originate (asn 4) pfx ] in
  let path a =
    List.map Asn.to_int (Asn.Map.find (asn a) m).path
  in
  Alcotest.(check (list int)) "1 tie-breaks to 2" [ 1; 2; 4 ] (path 1);
  Alcotest.(check (list int)) "3 direct" [ 3; 4 ] (path 3);
  Alcotest.(check int) "1 learns a customer route" 2 (Asn.Map.find (asn 1) m).cls

(* ---- Reset-filter oracle ---------------------------------------------- *)

(* [naive_reset] decides one session's updates from scratch, one update at
   a time, with no buffer, no counters and no incremental state. Read
   declaratively, [Session_reset] says:
   - while a transfer is running, an update is dropped unless it follows
     the session's previous update by more than [quiet_gap]; then the
     transfer is over and that update opens a fresh window;
   - otherwise the update's window is every update since the last
     transfer no older than [time - window]. If the window's distinct
     prefixes reach [max min_prefixes (table_fraction * table)], where
     [table] is the larger of the preloaded size and the distinct
     prefixes the session has ever carried, the whole window is dropped
     and a transfer starts at the window's first update.
   Everything never dropped passes, in global (time, session,
   within-session position) order: every push ticks the filter's clock.
   Returns the drop flags and the transfers as (start, end) times. *)
let naive_reset (config : Session_reset.config) ~preload (u : Update.t array) =
  let n = Array.length u in
  let dropped = Array.make n false and bursts = ref [] in
  let distinct js =
    List.map (fun j -> Update.prefix u.(j)) js
    |> List.sort_uniq Prefix.compare |> List.length
  in
  let seen = ref [] in
  let from = ref 0 and in_burst = ref false and burst_start = ref 0. in
  for i = 0 to n - 1 do
    let t = u.(i).Update.time in
    let p = Update.prefix u.(i) in
    if not (List.exists (Prefix.equal p) !seen) then seen := p :: !seen;
    if !in_burst then begin
      if t -. u.(i - 1).Update.time > config.Session_reset.quiet_gap then begin
        bursts := (!burst_start, u.(i - 1).Update.time) :: !bursts;
        in_burst := false;
        from := i
      end
      else dropped.(i) <- true
    end
    else begin
      (* rescan back from [i]; session times never decrease *)
      let rec back j acc =
        if j < !from || u.(j).Update.time < t -. config.Session_reset.window then acc
        else back (j - 1) (j :: acc)
      in
      let window = back i [] in
      let table = max preload (List.length !seen) in
      let threshold =
        max config.Session_reset.min_prefixes
          (int_of_float (config.Session_reset.table_fraction *. float_of_int table))
      in
      if distinct window >= threshold then begin
        List.iter (fun j -> dropped.(j) <- true) window;
        in_burst := true;
        burst_start := u.(List.hd window).Update.time;
        from := i + 1
      end
    end
  done;
  if !in_burst then bursts := (!burst_start, u.(n - 1).Update.time) :: !bursts;
  (dropped, !bursts)

let reset_sessions =
  [| { Update.collector = "rrc00"; peer = asn 1 };
     { Update.collector = "rrc00"; peer = asn 2 };
     { Update.collector = "rrc01"; peer = asn 1 };
     { Update.collector = "rrc01"; peer = asn 7 } |]

let nth_prefix i =
  Prefix.of_string (Printf.sprintf "10.%d.%d.0/24" (i / 256) (i mod 256))

(* A random reset-filter case: a config, per-session preloads, and a
   globally time-ordered stream of 1-4 sessions. Each session mixes
   background updates over its table, table re-sends (some big enough to
   trip the filter, some not), and long quiet gaps. Times sit on a
   half-second grid so updates tie within and across sessions, and the
   sessions are merged in a random order, so tied updates are pushed out
   of session order too. *)
type reset_case = {
  r_config : Session_reset.config;
  preloads : (Update.session_id * int) list;
  streams : Update.t array list;  (* per session, in push order *)
  merged : Update.t list;         (* the pushed stream *)
}

let reset_case seed =
  let rng = Rng.of_int seed in
  let grid x = Float.round (x *. 2.) /. 2. in
  let r_config =
    { Session_reset.window = grid (5. +. Rng.float rng 60.);
      min_prefixes = 5 + Rng.int rng 30;
      table_fraction = 0.2 +. Rng.float rng 0.7;
      quiet_gap = grid (3. +. Rng.float rng 30.) }
  in
  let n_sessions = 1 + Rng.int rng (Array.length reset_sessions) in
  let session k =
    let id = reset_sessions.(k) and table = 20 + Rng.int rng 60 in
    let update time p =
      let kind =
        if Rng.int rng 8 = 0 then Update.Withdraw p
        else
          Update.Announce
            (Route.make p [ id.Update.peer; asn (100 + Rng.int rng 5) ])
      in
      { Update.time; session = id; kind }
    in
    let rec go t acc =
      if t > 600. then List.rev acc
      else
        match Rng.int rng 30 with
        | 0 ->
            (* a table re-send: k distinct prefixes, 0-1.5 s apart *)
            let k = 1 + Rng.int rng table
            and step = 0.5 *. float_of_int (Rng.int rng 4) in
            let at i = t +. (step *. float_of_int i) in
            let resend = List.init k (fun i -> update (at i) (nth_prefix i)) in
            go (at k +. 0.5) (List.rev_append resend acc)
        | 1 | 2 -> go (grid (t +. 60. +. Rng.float rng 400.)) acc
        | _ ->
            let acc = update t (nth_prefix (Rng.int rng table)) :: acc in
            go (grid (t +. Rng.exponential rng 0.2)) acc
    in
    Array.of_list (go (grid (Rng.float rng 100.)) [])
  in
  let streams = List.init n_sessions session in
  let preloads =
    List.init n_sessions (fun k -> (reset_sessions.(k), Rng.int rng 100))
  in
  let order = Array.of_list streams in
  Rng.shuffle rng order;
  let merged =
    List.stable_sort
      (fun (a : Update.t) (b : Update.t) -> Float.compare a.Update.time b.Update.time)
      (List.concat_map Array.to_list (Array.to_list order))
  in
  { r_config; preloads; streams; merged }

(* The real filter, driven by [push] alone as [Measurement.feed] does, or
   with an explicit [advance] before every push as qsbench does. *)
let run_reset ~advance c =
  let out = ref [] in
  let f =
    Session_reset.create ~config:c.r_config ~emit:(fun u -> out := u :: !out) ()
  in
  List.iter (fun (id, n) -> Session_reset.preload_table f id n) c.preloads;
  List.iter
    (fun (u : Update.t) ->
       if advance then Session_reset.advance f u.Update.time;
       Session_reset.push f u)
    c.merged;
  Session_reset.flush f;
  (List.rev !out, Session_reset.stats f)

(* The oracle's side: the passed updates in (time, session, position)
   order, the drop count, and the transfers per session. *)
let oracle_reset c =
  let decided =
    List.map2
      (fun (id, preload) u ->
         let dropped, bursts = naive_reset c.r_config ~preload u in
         (id, u, dropped, bursts))
      c.preloads c.streams
  in
  let passed =
    List.concat_map
      (fun (id, u, dropped, _) ->
         List.filteri (fun i _ -> not dropped.(i))
           (List.mapi (fun i x -> (x, id, i)) (Array.to_list u)))
      decided
    |> List.stable_sort (fun ((a : Update.t), sa, ia) ((b : Update.t), sb, ib) ->
        match Float.compare a.Update.time b.Update.time with
        | 0 -> (match Update.session_compare sa sb with 0 -> Int.compare ia ib | c -> c)
        | c -> c)
    |> List.map (fun (x, _, _) -> x)
  in
  let n_dropped =
    List.fold_left
      (fun n (_, _, d, _) -> Array.fold_left (fun n b -> if b then n + 1 else n) n d)
      0 decided
  in
  let bursts =
    List.concat_map (fun (id, _, _, b) -> List.map (fun (s, e) -> (id, s, e)) b) decided
  in
  (passed, n_dropped, bursts)

let sort_bursts =
  List.sort (fun (a, s, e) (b, s', e') ->
      match Update.session_compare a b with
      | 0 -> (match Float.compare s s' with 0 -> Float.compare e e' | c -> c)
      | c -> c)

let reset_agrees seed =
  let c = reset_case seed in
  let passed, n_dropped, bursts = oracle_reset c in
  List.for_all
    (fun advance ->
       let emitted, stats = run_reset ~advance c in
       List.equal ( == ) emitted passed
       && stats.Session_reset.dropped = n_dropped
       && stats.Session_reset.passed = List.length passed
       && stats.Session_reset.buffered = 0
       && sort_bursts stats.Session_reset.bursts = sort_bursts bursts)
    [ false; true ]

let prop_reset_oracle =
  QCheck.Test.make ~name:"ticked reset filter = naive window rescan"
    ~count:500
    QCheck.(int_bound 1_000_000)
    reset_agrees

(* The generator must reach every branch the oracle models: transfers
   that end on a quiet gap and ones still open at the end, drops, re-sends
   too small to trip, ties across sessions, and emission that the tick
   reorders relative to the pushed stream. *)
let test_reset_generator_covers () =
  let cases = List.init 200 reset_case in
  let count p = List.length (List.filter p cases) in
  let results = List.map (fun c -> (c, oracle_reset c)) cases in
  let count_r p = List.length (List.filter p results) in
  let last_time (u : Update.t array) = u.(Array.length u - 1).Update.time in
  List.iter
    (fun (name, n) -> Alcotest.(check bool) (name ^ " exercised") true (n >= 10))
    [ ("drops", count_r (fun (_, (_, d, _)) -> d > 0));
      ("quiet-gap ends",
       count_r (fun (c, (_, _, b)) ->
           List.exists
             (fun (id, _, e) ->
                List.exists2
                  (fun (id', _) u -> Update.session_equal id id' && e < last_time u)
                  c.preloads c.streams)
             b));
      ("transfers open at the end",
       count_r (fun (c, (_, _, b)) ->
           List.exists
             (fun (id, _, e) ->
                List.exists2
                  (fun (id', _) u -> Update.session_equal id id' && e = last_time u)
                  c.preloads c.streams)
             b));
      ("untripped streams", count_r (fun (_, (_, d, _)) -> d = 0));
      ("cross-session ties",
       count (fun c ->
           let rec tie = function
             | (a : Update.t) :: (b :: _ as rest) ->
                 (a.Update.time = b.Update.time
                  && not (Update.session_equal a.Update.session b.Update.session))
                 || tie rest
             | _ -> false
           in
           tie c.merged));
      ("ties pushed out of session order",
       count (fun c ->
           let rec swapped = function
             | (a : Update.t) :: (b :: _ as rest) ->
                 (a.Update.time = b.Update.time
                  && Update.session_compare a.Update.session b.Update.session > 0)
                 || swapped rest
             | _ -> false
           in
           swapped c.merged)) ]

let () =
  Alcotest.run "qs_oracle"
    [ ("oracle",
       [ Alcotest.test_case "naive diamond" `Quick test_naive_diamond;
         Alcotest.test_case "generator covers shapes" `Quick
           test_generator_covers_shapes ]
       @ List.map (fun t -> QCheck_alcotest.to_alcotest t)
           [ prop_oracle; prop_oracle_workspace; prop_oracle_delta;
             prop_order_independent ]);
      ("reset",
       [ Alcotest.test_case "generator covers branches" `Quick
           test_reset_generator_covers ]
       @ [ QCheck_alcotest.to_alcotest prop_reset_oracle ]) ]
