(* Tests for qs_topology: relationships, the AS graph, the generator,
   addressing, and graph algorithms. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let asn = Asn.of_int

(* ---- Relationship --------------------------------------------------- *)

let test_invert () =
  check_bool "customer<->provider" true
    (Relationship.equal (Relationship.invert Relationship.Customer)
       Relationship.Provider);
  check_bool "peer self-inverse" true
    (Relationship.equal (Relationship.invert Relationship.Peer) Relationship.Peer)

let test_export_rules () =
  let open Relationship in
  (* customer routes go everywhere *)
  check_bool "cust->cust" true (export_allowed ~learned_from:Customer ~to_:Customer);
  check_bool "cust->peer" true (export_allowed ~learned_from:Customer ~to_:Peer);
  check_bool "cust->prov" true (export_allowed ~learned_from:Customer ~to_:Provider);
  (* peer and provider routes only to customers *)
  check_bool "peer->cust" true (export_allowed ~learned_from:Peer ~to_:Customer);
  check_bool "peer->peer" false (export_allowed ~learned_from:Peer ~to_:Peer);
  check_bool "peer->prov" false (export_allowed ~learned_from:Peer ~to_:Provider);
  check_bool "prov->cust" true (export_allowed ~learned_from:Provider ~to_:Customer);
  check_bool "prov->peer" false (export_allowed ~learned_from:Provider ~to_:Peer);
  check_bool "prov->prov" false (export_allowed ~learned_from:Provider ~to_:Provider)

let test_export_characterization () =
  (* The Gao rule in one sentence: a route crosses a link iff someone pays
     for it — export is allowed exactly when one side is a customer. *)
  let all = [ Relationship.Customer; Relationship.Provider; Relationship.Peer ] in
  List.iter
    (fun learned_from ->
       List.iter
         (fun to_ ->
            let expected =
              Relationship.equal learned_from Relationship.Customer
              || Relationship.equal to_ Relationship.Customer
            in
            check_bool
              (Printf.sprintf "%s->%s"
                 (Relationship.to_string learned_from)
                 (Relationship.to_string to_))
              expected
              (Relationship.export_allowed ~learned_from ~to_))
         all)
    all;
  (* invert is an involution, and export is not symmetric under it: a
     customer-learned route goes to a provider, but a provider-learned
     route must not go to a provider. *)
  List.iter
    (fun r ->
       check_bool "invert involution" true
         (Relationship.equal (Relationship.invert (Relationship.invert r)) r))
    all;
  check_bool "asymmetry under invert" true
    (Relationship.export_allowed ~learned_from:Relationship.Customer
       ~to_:Relationship.Provider
     && not
          (Relationship.export_allowed ~learned_from:Relationship.Provider
             ~to_:Relationship.Provider))

let test_preference () =
  check_bool "customer > peer > provider" true
    (Relationship.preference_class Relationship.Customer
     > Relationship.preference_class Relationship.Peer
     && Relationship.preference_class Relationship.Peer
        > Relationship.preference_class Relationship.Provider)

(* ---- As_graph ------------------------------------------------------- *)

let stub_info name =
  { As_graph.name; tier = As_graph.Stub; hosting_weight = 0. }

let triangle () =
  let g = As_graph.create () in
  As_graph.add_as g (asn 1) (stub_info "one");
  As_graph.add_as g (asn 2) (stub_info "two");
  As_graph.add_as g (asn 3) (stub_info "three");
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  As_graph.add_peering g (asn 2) (asn 3);
  g

let test_graph_relationships () =
  let g = triangle () in
  check_bool "2 is 1's customer" true
    (As_graph.relationship g (asn 1) (asn 2) = Some Relationship.Customer);
  check_bool "1 is 2's provider" true
    (As_graph.relationship g (asn 2) (asn 1) = Some Relationship.Provider);
  check_bool "peering symmetric" true
    (As_graph.relationship g (asn 2) (asn 3) = Some Relationship.Peer
     && As_graph.relationship g (asn 3) (asn 2) = Some Relationship.Peer);
  check_bool "no link" true (As_graph.relationship g (asn 1) (asn 3) = None);
  check_int "customers of 1" 1 (List.length (As_graph.customers g (asn 1)));
  check_int "providers of 2" 1 (List.length (As_graph.providers g (asn 2)));
  check_int "peers of 3" 1 (List.length (As_graph.peers g (asn 3)));
  check_int "links" 2 (As_graph.num_links g)

let test_graph_rejects () =
  let g = triangle () in
  Alcotest.check_raises "self loop" (Invalid_argument "As_graph.add_link: self loop")
    (fun () -> As_graph.add_peering g (asn 1) (asn 1));
  check_bool "duplicate link rejected" true
    (try
       As_graph.add_peering g (asn 1) (asn 2);
       false
     with Invalid_argument _ -> true)

let test_caida_roundtrip () =
  let g = triangle () in
  let s = As_graph.to_caida_string g in
  let g' = As_graph.of_caida_string s in
  check_int "ases preserved" (As_graph.num_ases g) (As_graph.num_ases g');
  check_int "links preserved" (As_graph.num_links g) (As_graph.num_links g');
  check_bool "relationship preserved" true
    (As_graph.relationship g' (asn 1) (asn 2) = Some Relationship.Customer);
  check_bool "metadata preserved" true
    ((As_graph.info g' (asn 1)).As_graph.name = "one")

let test_indexed_view () =
  let g = triangle () in
  let ix = As_graph.Indexed.of_graph g in
  check_int "n" 3 (As_graph.Indexed.n ix);
  let id2 = As_graph.Indexed.id_of_asn ix (asn 2) in
  check_bool "asn roundtrip" true
    (Asn.equal (As_graph.Indexed.asn_of_id ix id2) (asn 2));
  check_int "neighbors of 2" 2 (Array.length (As_graph.Indexed.neighbors ix id2))

(* ---- Topo_gen ------------------------------------------------------- *)

let small_graph seed =
  Topo_gen.generate ~rng:(Rng.of_int seed) Topo_gen.small_params

let test_gen_connected () =
  check_bool "connected" true (Paths.connected (small_graph 1))

let test_gen_counts () =
  let g = small_graph 2 in
  let p = Topo_gen.small_params in
  check_int "total ASes" (p.Topo_gen.n_tier1 + p.Topo_gen.n_transit + p.Topo_gen.n_stub)
    (As_graph.num_ases g)

let test_gen_tier1_clique () =
  let g = small_graph 3 in
  let tier1 =
    As_graph.ases g
    |> List.filter (fun a ->
        (As_graph.info g a).As_graph.tier = As_graph.Tier1)
  in
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            if not (Asn.equal a b) then
              check_bool "tier1s peer" true
                (As_graph.relationship g a b = Some Relationship.Peer))
         tier1)
    tier1

let test_gen_stubs_have_providers () =
  let g = small_graph 4 in
  As_graph.ases g
  |> List.iter (fun a ->
      match (As_graph.info g a).As_graph.tier with
      | As_graph.Stub ->
          check_bool "stub has a provider" true (As_graph.providers g a <> [])
      | As_graph.Transit ->
          check_bool "transit has a provider" true (As_graph.providers g a <> [])
      | As_graph.Tier1 ->
          check_bool "tier1 has no provider" true (As_graph.providers g a = []))

let test_gen_hosting () =
  let g = small_graph 5 in
  let hosting = Topo_gen.hosting_ases g in
  check_int "hosting count" Topo_gen.small_params.Topo_gen.n_hosting
    (List.length hosting);
  (* heaviest first, and the famous five present *)
  let weights = List.map snd hosting in
  check_bool "sorted descending" true
    (List.for_all2 (fun a b -> a >= b) weights
       (List.tl weights @ [ 0. ]));
  let names =
    List.map (fun (a, _) -> (As_graph.info g a).As_graph.name) hosting
  in
  check_bool "Hetzner present" true (List.mem "Hetzner Online AG" names)

let test_gen_deterministic () =
  let g1 = small_graph 7 and g2 = small_graph 7 in
  Alcotest.(check string) "same topology"
    (As_graph.to_caida_string g1) (As_graph.to_caida_string g2)

(* ---- Paths ---------------------------------------------------------- *)

let test_valley_free_checker () =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info ""))
    [ 10; 11; 20; 21; 6 ];
  (* 10 is 11's provider; 10 -- 20 peer; 20 is 21's provider; 6 is a second
     provider of 11. *)
  As_graph.add_provider_customer g ~provider:(asn 10) ~customer:(asn 11);
  As_graph.add_peering g (asn 10) (asn 20);
  As_graph.add_provider_customer g ~provider:(asn 20) ~customer:(asn 21);
  As_graph.add_provider_customer g ~provider:(asn 6) ~customer:(asn 11);
  (* origin 11: uphill to 10, across the peering, downhill to 21 *)
  check_bool "up-peer-down" true
    (Paths.valley_free g [ asn 21; asn 20; asn 10; asn 11 ]);
  check_bool "pure uphill" true (Paths.valley_free g [ asn 10; asn 11 ]);
  check_bool "pure downhill" true (Paths.valley_free g [ asn 11; asn 10 ]);
  (* a peer-learned route exported across a second peering is a valley *)
  check_bool "peer-peer rejected" false
    (Paths.valley_free g [ asn 21; asn 20; asn 10; asn 11; asn 6 ]);
  (* valley: provider route going back uphill (10 -> 11 -> 6) *)
  check_bool "valley rejected" false
    (Paths.valley_free g [ asn 6; asn 11; asn 10 ]);
  (* unlinked hop *)
  check_bool "unlinked rejected" false (Paths.valley_free g [ asn 10; asn 21 ]);
  check_bool "singleton ok" true (Paths.valley_free g [ asn 10 ])

let test_bfs_and_cone () =
  let g = triangle () in
  let d = Paths.bfs_hops g (asn 1) in
  check_int "self distance" 0 (Asn.Map.find (asn 1) d);
  check_int "one hop" 1 (Asn.Map.find (asn 2) d);
  check_int "two hops" 2 (Asn.Map.find (asn 3) d);
  check_int "cone of 1" 2 (Paths.customer_cone_size g (asn 1));
  check_int "cone of 3" 1 (Paths.customer_cone_size g (asn 3))

(* ---- Reach ----------------------------------------------------------- *)

(* The valley-free checker graph again: 10 is 11's provider, 10 -- 20 peer,
   20 is 21's provider, 6 is a second provider of 11. 6 hangs off the far
   downhill side of any 21-rooted walk, which makes it the interesting AS
   in every test below. *)
let reach_graph () =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info ""))
    [ 6; 10; 11; 20; 21 ];
  As_graph.add_provider_customer g ~provider:(asn 10) ~customer:(asn 11);
  As_graph.add_peering g (asn 10) (asn 20);
  As_graph.add_provider_customer g ~provider:(asn 20) ~customer:(asn 21);
  As_graph.add_provider_customer g ~provider:(asn 6) ~customer:(asn 11);
  g

(* [g] rebuilt with every ASN renamed by [f] and only the links [keep]
   accepts: the renumbering law's relabelled graph, and the monotonicity
   law's graph without a link. *)
let rebuild ?(f = Fun.id) ?(keep = fun _ _ -> true) g =
  let g' = As_graph.create () in
  List.iter
    (fun a -> As_graph.add_as g' (f a) (As_graph.info g a))
    (As_graph.ases g);
  List.iter
    (fun (a, b, rel) ->
       if keep a b then
         match rel with
         | Relationship.Customer ->
             As_graph.add_provider_customer g' ~provider:(f a) ~customer:(f b)
         | Relationship.Provider ->
             As_graph.add_provider_customer g' ~provider:(f b) ~customer:(f a)
         | Relationship.Peer -> As_graph.add_peering g' (f a) (f b))
    (As_graph.links g);
  g'

(* [g] without the link between [la] and [lb]. *)
let without_link g la lb =
  rebuild g ~keep:(fun a b ->
      not
        ((Asn.equal a la && Asn.equal b lb)
         || (Asn.equal a lb && Asn.equal b la)))

let test_reach_closure () =
  let t = Reach.create (As_graph.Indexed.of_graph (reach_graph ())) in
  let c11 = Reach.compute t (asn 11) in
  check_bool "source" true (Asn.equal (Reach.source c11) (asn 11));
  (* an origin at 11 floods the whole graph: up to both providers, across
     the peering, down to 21 *)
  check_int "11 reaches everyone" 5 (Reach.reachable_count c11);
  List.iter
    (fun i ->
       check_bool
         (Printf.sprintf "uphill from 11 to %d" i)
         (List.mem i [ 6; 10; 11 ])
         (Reach.uphill_only c11 (asn i)))
    [ 6; 10; 11; 20; 21 ];
  let c21 = Reach.compute t (asn 21) in
  (* after the peering crossing only downhill steps remain, so 6 can
     never hear a route originated at 21 *)
  check_bool "21 cannot reach 6" false (Reach.reaches c21 (asn 6));
  check_int "21 reaches its side" 4 (Reach.reachable_count c21);
  check_bool "unknown AS unreachable" false (Reach.reaches c21 (asn 999));
  check_int "fold agrees with count" (Reach.reachable_count c21)
    (Reach.fold (fun _ n -> n + 1) c21 0)

let test_reach_exposure () =
  let t = Reach.create (As_graph.Indexed.of_graph (reach_graph ())) in
  let c21 = Reach.compute t (asn 21) and c11 = Reach.compute t (asn 11) in
  let e = Reach.exposure ~src:c21 ~dst:c11 in
  (* no valley-free 21 <-> 11 walk crosses 6 *)
  check_bool "6 outside the bound" false (Asn.Set.mem (asn 6) e);
  List.iter
    (fun i ->
       check_bool (Printf.sprintf "%d on some path" i) true
         (Asn.Set.mem (asn i) e))
    [ 10; 11; 20; 21 ];
  (* walk reversal preserves valley-freedom, so exposure is symmetric *)
  check_bool "symmetric" true
    (Asn.Set.equal e (Reach.exposure ~src:c11 ~dst:c21));
  check_bool "on_some_path agrees with the set" true
    (List.for_all
       (fun a -> Reach.on_some_path ~src:c21 ~dst:c11 a = Asn.Set.mem a e)
       (As_graph.ases (reach_graph ())))

let test_reach_scoping () =
  let t = Reach.create (As_graph.Indexed.of_graph (reach_graph ())) in
  (* radius 1 from 11: the origin and its two providers; radius 0: alone *)
  check_int "radius 1" 3
    (Reach.reachable_count (Reach.compute t ~max_radius:1 (asn 11)));
  check_int "radius 0" 1
    (Reach.reachable_count (Reach.compute t ~max_radius:0 (asn 11)));
  (* first hop scoped to 10 only: 6 never hears, everyone else still does *)
  let scoped =
    Reach.compute t ~export_to:(Asn.Set.singleton (asn 10)) (asn 11)
  in
  check_bool "6 cut off by export scoping" false (Reach.reaches scoped (asn 6));
  check_int "rest intact" 4 (Reach.reachable_count scoped);
  (* failing the peering strands 21 with its provider *)
  let cut =
    without_link (reach_graph ()) (asn 10) (asn 20)
    |> As_graph.Indexed.of_graph |> Reach.create
  in
  check_int "peering failure strands 21" 2
    (Reach.reachable_count (Reach.compute cut (asn 21)));
  check_bool "negative radius rejected" true
    (try
       ignore (Reach.compute t ~max_radius:(-1) (asn 11));
       false
     with Invalid_argument _ -> true)

(* Soundness law 1: removing a link never grows a closure or an exposure
   bound — the reason intact-graph bounds stay valid under churn. The cut
   closures are computed on the graph rebuilt without the link. *)
let prop_reach_monotone_under_link_removal =
  QCheck.Test.make ~name:"closure monotone under link removal" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
       let g = small_graph seed in
       let t = Reach.create (As_graph.Indexed.of_graph g) in
       let links = Array.of_list (As_graph.links g) in
       let la, lb, _ = links.(seed mod Array.length links) in
       let t_cut =
         Reach.create (As_graph.Indexed.of_graph (without_link g la lb))
       in
       let sources =
         la :: lb
         :: (As_graph.ases g
             |> List.filteri (fun i _ -> i mod 13 = seed mod 13))
       in
       List.for_all
         (fun s ->
            let full = Reach.compute t s in
            let cut = Reach.compute t_cut s in
            Reach.reachable_count cut <= Reach.reachable_count full
            && Reach.fold
                 (fun x ok ->
                    ok && Reach.reaches full x
                    && (Reach.uphill_only full x
                        || not (Reach.uphill_only cut x)))
                 cut true)
         sources
       &&
       match sources with
       | s1 :: s2 :: _ ->
           let expo t a b =
             Reach.exposure ~src:(Reach.compute t a) ~dst:(Reach.compute t b)
           in
           Asn.Set.subset (expo t_cut s1 s2) (expo t s1 s2)
       | _ -> true)

(* Soundness law 2: closures commute with any relabelling of the ASNs —
   the answers depend on the shape of the graph, never on the names. *)
let prop_reach_renumbering_invariance =
  QCheck.Test.make ~name:"closure invariant under AS renumbering" ~count:10
    QCheck.(pair (int_bound 1000) (int_range 1 5000))
    (fun (seed, shift) ->
       let g = small_graph seed in
       let f a = asn ((Asn.to_int a * 3) + shift) in
       let g' = rebuild ~f g in
       let t = Reach.create (As_graph.Indexed.of_graph g) in
       let t' = Reach.create (As_graph.Indexed.of_graph g') in
       As_graph.ases g
       |> List.filteri (fun i _ -> i mod 17 = seed mod 17)
       |> List.for_all (fun s ->
           let c = Reach.compute t s and c' = Reach.compute t' (f s) in
           Reach.reachable_count c = Reach.reachable_count c'
           && List.for_all
                (fun x ->
                   Reach.reaches c x = Reach.reaches c' (f x)
                   && Reach.uphill_only c x = Reach.uphill_only c' (f x))
                (As_graph.ases g)))

(* ---- Addressing ----------------------------------------------------- *)

let test_addressing_coherent () =
  let g = small_graph 11 in
  let addressing = Addressing.allocate ~rng:(Rng.of_int 11) g in
  check_bool "every AS has prefixes" true
    (List.for_all (fun a -> Addressing.prefixes_of addressing a <> [])
       (As_graph.ases g));
  (* origin lookup is consistent *)
  List.iter
    (fun (p, o) ->
       check_bool "origin matches" true
         (match Addressing.origin addressing p with
          | Some o' -> Asn.equal o o'
          | None -> false);
       check_bool "prefix listed under its AS" true
         (List.exists (Prefix.equal p) (Addressing.prefixes_of addressing o)))
    (Addressing.announced addressing)

let test_addressing_top_blocks_disjoint () =
  let g = small_graph 12 in
  let addressing = Addressing.allocate ~rng:(Rng.of_int 12) g in
  (* The least-specific block of any two distinct ASes must not overlap. *)
  let tops =
    As_graph.ases g
    |> List.filter_map (fun a ->
        match Addressing.prefixes_of addressing a with
        | p :: _ -> Some (a, p)
        | [] -> None)
  in
  List.iteri
    (fun i (_, p) ->
       List.iteri
         (fun j (_, q) ->
            if i < j then
              check_bool "top blocks disjoint" false (Prefix.overlaps p q))
         tops)
    tops

let test_addressing_nested_inside () =
  let g = small_graph 13 in
  let addressing = Addressing.allocate ~rng:(Rng.of_int 13) g in
  (* Maximal blocks (not contained in any other block of the same AS) must
     be pairwise disjoint across different ASes; non-maximal blocks must
     nest inside one of their own AS's maximal blocks. *)
  let maximal =
    As_graph.ases g
    |> List.concat_map (fun a ->
        let ps = Addressing.prefixes_of addressing a in
        ps
        |> List.filter (fun p ->
            not (List.exists
                   (fun q -> not (Prefix.equal p q) && Prefix.subsumes q p)
                   ps))
        |> List.map (fun p -> (a, p)))
  in
  List.iteri
    (fun i (a1, p) ->
       List.iteri
         (fun j (a2, q) ->
            if i < j && not (Asn.equal a1 a2) then
              check_bool "maximal blocks of different ASes disjoint" false
                (Prefix.overlaps p q))
         maximal)
    maximal;
  As_graph.ases g
  |> List.iter (fun a ->
      let ps = Addressing.prefixes_of addressing a in
      List.iter
        (fun p ->
           let is_maximal = List.exists (fun (_, q) -> Prefix.equal p q)
               (List.filter (fun (a', _) -> Asn.equal a a') maximal) in
           if not is_maximal then
             check_bool "non-maximal nests in own maximal block" true
               (List.exists
                  (fun q -> not (Prefix.equal p q) && Prefix.subsumes q p)
                  ps))
        ps)

let test_address_in_covered () =
  let g = small_graph 14 in
  let addressing = Addressing.allocate ~rng:(Rng.of_int 14) g in
  let rng = Rng.of_int 99 in
  As_graph.ases g
  |> List.iter (fun a ->
      let ip = Addressing.address_in ~rng addressing a in
      match Addressing.covering_prefix addressing ip with
      | Some (_, origin) ->
          check_bool "address maps back to its AS" true (Asn.equal origin a)
      | None -> Alcotest.fail "address not covered by any announced prefix")

(* [Prefix.hash] must spread the prefixes a scenario announces across
   [Prefix.Table]'s buckets. The Paper scenario's prefixes are /24 or
   shorter, so their network addresses are multiples of 256; a hash that
   keeps those zero low bits put all 3 558 into 21 of 2 048 buckets, with
   a longest chain of 640. *)
let test_prefix_table_spread () =
  let addressing = (Scenario.build ~seed:1 Scenario.Paper).Scenario.addressing in
  let table = Prefix.Table.create 16 in
  List.iter (fun (p, o) -> Prefix.Table.replace table p o)
    (Addressing.announced addressing);
  let stats = Prefix.Table.stats table in
  check_int "every announced prefix stored" (Addressing.count addressing)
    stats.Hashtbl.num_bindings;
  check_bool
    (Printf.sprintf "longest chain %d of %d bindings in %d buckets is short"
       stats.Hashtbl.max_bucket_length stats.Hashtbl.num_bindings
       stats.Hashtbl.num_buckets)
    true (stats.Hashtbl.max_bucket_length <= 16)

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)

let prop_generated_graphs_connected =
  QCheck.Test.make ~name:"generated topologies are connected" ~count:10
    QCheck.(int_bound 1000)
    (fun seed -> Paths.connected (small_graph seed))

let () =
  Alcotest.run "qs_topology"
    [ ("relationship",
       [ Alcotest.test_case "invert" `Quick test_invert;
         Alcotest.test_case "export rules" `Quick test_export_rules;
         Alcotest.test_case "export characterization" `Quick
           test_export_characterization;
         Alcotest.test_case "preference order" `Quick test_preference ]);
      ("as_graph",
       [ Alcotest.test_case "relationships" `Quick test_graph_relationships;
         Alcotest.test_case "rejects bad links" `Quick test_graph_rejects;
         Alcotest.test_case "caida roundtrip" `Quick test_caida_roundtrip;
         Alcotest.test_case "indexed view" `Quick test_indexed_view ]);
      ("topo_gen",
       [ Alcotest.test_case "connected" `Quick test_gen_connected;
         Alcotest.test_case "counts" `Quick test_gen_counts;
         Alcotest.test_case "tier1 clique" `Quick test_gen_tier1_clique;
         Alcotest.test_case "stub providers" `Quick test_gen_stubs_have_providers;
         Alcotest.test_case "hosting ASes" `Quick test_gen_hosting;
         Alcotest.test_case "deterministic" `Quick test_gen_deterministic ]
       @ qsuite [ prop_generated_graphs_connected ]);
      ("paths",
       [ Alcotest.test_case "valley-free checker" `Quick test_valley_free_checker;
         Alcotest.test_case "bfs and cone" `Quick test_bfs_and_cone ]);
      ("reach",
       [ Alcotest.test_case "closure membership" `Quick test_reach_closure;
         Alcotest.test_case "exposure bound" `Quick test_reach_exposure;
         Alcotest.test_case "scoped closures" `Quick test_reach_scoping ]
       @ qsuite
           [ prop_reach_monotone_under_link_removal;
             prop_reach_renumbering_invariance ]);
      ("addressing",
       [ Alcotest.test_case "coherent" `Quick test_addressing_coherent;
         Alcotest.test_case "top blocks disjoint" `Quick
           test_addressing_top_blocks_disjoint;
         Alcotest.test_case "nested inside aggregate" `Quick
           test_addressing_nested_inside;
         Alcotest.test_case "address_in covered" `Quick test_address_in_covered;
         Alcotest.test_case "prefix table spread" `Quick
           test_prefix_table_spread ]) ]
