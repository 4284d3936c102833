(* Tests for qs_bgp: routes, link sets, the Gao-Rexford propagation engine,
   MRT codec, collectors, session-reset filtering and the dynamics
   simulator. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let asn = Asn.of_int
let pfx = Prefix.of_string

let stub_info name =
  { As_graph.name; tier = As_graph.Stub; hosting_weight = 0. }

(* ---- Route ---------------------------------------------------------- *)

let test_route_basics () =
  let r = Route.make (pfx "10.0.0.0/8") [ asn 3; asn 2; asn 1 ] in
  check_int "origin" 1 (Asn.to_int (Route.origin r));
  check_int "first hop" 3 (Asn.to_int (Route.first_hop r));
  check_int "length" 3 (Route.path_length r);
  check_bool "contains" true (Route.contains_as r (asn 2));
  check_bool "not contains" false (Route.contains_as r (asn 9))

let test_route_as_set_prepending () =
  let a = Route.make (pfx "10.0.0.0/8") [ asn 2; asn 1; asn 1; asn 1 ] in
  let b = Route.make (pfx "10.0.0.0/8") [ asn 2; asn 1 ] in
  check_int "prepending counts in length" 4 (Route.path_length a);
  check_bool "but not in AS set" true (Route.same_as_set a b)

let test_route_empty_rejected () =
  Alcotest.check_raises "empty path" (Invalid_argument "Route.make: empty AS path")
    (fun () -> ignore (Route.make (pfx "10.0.0.0/8") []))

(* ---- Link_set ------------------------------------------------------- *)

(* Normalized ASN pairs in a plain [Set]: the reference order the
   id-keyed [Link_set] must walk in, since repair order decides the delta
   counters. *)
module Pairs = Set.Make (struct
  type t = Asn.t * Asn.t

  let compare (a1, b1) (a2, b2) =
    match Asn.compare a1 a2 with 0 -> Asn.compare b1 b2 | c -> c
end)

let norm a b = if Asn.compare a b <= 0 then (a, b) else (b, a)

let pair_graph asns =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info "")) asns;
  As_graph.Indexed.of_graph g

(* The links of [a] not in [b], in [Link_set.iter_diff] order, as ASN
   pairs. *)
let links_diff ix a b =
  let out = ref [] in
  Link_set.iter_diff
    (fun i j ->
       out :=
         (As_graph.Indexed.asn_of_id ix i, As_graph.Indexed.asn_of_id ix j)
         :: !out)
    a b;
  List.rev !out

let test_link_set () =
  let ix = pair_graph [ 1; 2; 7 ] in
  let s = Link_set.add ix (asn 1) (asn 2) Link_set.empty in
  check_bool "normalized" true (Link_set.mem ix (asn 2) (asn 1) s);
  check_bool "by id" true (Link_set.mem_ids s 1 0);
  check_bool "other link absent" false (Link_set.mem ix (asn 2) (asn 7) s);
  let s = Link_set.remove ix (asn 2) (asn 1) s in
  check_bool "removed" true (Link_set.is_empty s);
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "ASN outside the graph rejected" true
    (rejects (fun () -> Link_set.of_list ix [ (asn 1, asn 3) ]));
  check_bool "remove outside the graph rejected" true
    (rejects (fun () -> Link_set.remove ix (asn 9) (asn 1) Link_set.empty));
  let other = pair_graph [ 1; 2; 7; 8 ] in
  let s = Link_set.of_list ix [ (asn 7, asn 1) ] in
  check_bool "size mismatch rejected by add" true
    (rejects (fun () -> Link_set.add other (asn 1) (asn 2) s));
  check_bool "size mismatch rejected by compute" true
    (rejects (fun () ->
         Propagate.compute other ~failed:s
           [ Announcement.originate (asn 1) (pfx "10.0.0.0/24") ]));
  check_bool "size mismatch rejected by Delta.update" true
    (rejects (fun () ->
         Propagate.Delta.update (Propagate.Delta.create other)
           (Propagate.Delta.create_scratch ()) ~failed:s
           [ Announcement.originate (asn 1) (pfx "10.0.0.0/24") ]));
  check_bool "the empty set fits every graph" false
    (rejects (fun () ->
         Propagate.compute other ~failed:Link_set.empty
           [ Announcement.originate (asn 1) (pfx "10.0.0.0/24") ]))

(* Law: walking [Link_set.of_list ix l] ascending gives the normalized ASN
   pairs of [l] in sorted order, and [iter_diff] walks [a \ b] in that
   same order. *)
let prop_link_set_order =
  QCheck.Test.make ~name:"link set walks in normalized ASN-pair order"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
       let rng = Rng.of_int seed in
       let g = Topo_gen.generate ~rng Topo_gen.small_params in
       let ix = As_graph.Indexed.of_graph g in
       let ases = Array.of_list (As_graph.ases g) in
       let draw () =
         List.init (Rng.int rng 40) (fun _ ->
             (Rng.pick rng ases, Rng.pick rng ases))
       in
       let la = draw () and lb = draw () in
       let pairs l =
         List.fold_left (fun s (a, b) -> Pairs.add (norm a b) s) Pairs.empty l
       in
       let sa = Link_set.of_list ix la and sb = Link_set.of_list ix lb in
       links_diff ix sa Link_set.empty = Pairs.elements (pairs la)
       && Link_set.cardinal sa = Pairs.cardinal (pairs la)
       && links_diff ix sa sb = Pairs.elements (Pairs.diff (pairs la) (pairs lb)))

(* ---- Propagate: hand-built topologies ------------------------------- *)

(* A diamond:      1 (provider of 2 and 3)
                  / \
                 2   3      2 and 3 are peers
                  \ /
                   4 (customer of both 2 and 3)               *)
let diamond () =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info "")) [ 1; 2; 3; 4 ];
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 3);
  As_graph.add_peering g (asn 2) (asn 3);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 4);
  As_graph.add_provider_customer g ~provider:(asn 3) ~customer:(asn 4);
  As_graph.Indexed.of_graph g

let origin4 = Announcement.originate (asn 4) (pfx "10.0.0.0/24")

let path_at outcome a =
  match Propagate.route_at outcome a with
  | Some r -> List.map Asn.to_int r.Route.as_path
  | None -> []

let test_propagate_diamond () =
  let outcome = Propagate.compute (diamond ()) [ origin4 ] in
  check_int "all routed" 4 (Propagate.routed_count outcome);
  Alcotest.(check (list int)) "2 exports 2-4" [ 2; 4 ] (path_at outcome (asn 2));
  Alcotest.(check (list int)) "origin exports itself" [ 4 ] (path_at outcome (asn 4));
  (* 1 hears from both 2 and 3 (customer routes, equal length): the
     tie-break picks the lower next-hop ASN, 2. *)
  Alcotest.(check (list int)) "tie-break lowest ASN" [ 1; 2; 4 ]
    (path_at outcome (asn 1));
  check_bool "route class at origin" true
    (Propagate.route_class_at outcome (asn 4) = Some `Origin);
  check_bool "route class customer at 2" true
    (Propagate.route_class_at outcome (asn 2) = Some `Customer)

let test_propagate_prefer_customer_over_peer () =
  let outcome = Propagate.compute (diamond ()) [ origin4 ] in
  Alcotest.(check (list int)) "3 via its customer" [ 3; 4 ] (path_at outcome (asn 3))

let test_propagate_peer_route_selected () =
  (* Without a 3-4 link, 3 reaches 4 via peer 2 (preferred to provider 1). *)
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info "")) [ 1; 2; 3; 4 ];
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 3);
  As_graph.add_peering g (asn 2) (asn 3);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 4);
  let outcome = Propagate.compute (As_graph.Indexed.of_graph g) [ origin4 ] in
  Alcotest.(check (list int)) "3 via peer 2" [ 3; 2; 4 ] (path_at outcome (asn 3));
  check_bool "class peer" true (Propagate.route_class_at outcome (asn 3) = Some `Peer)

let test_propagate_valley_free_exports () =
  (* 3 learns via peer 2; it must not re-export to its own peer 5. *)
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info "")) [ 2; 3; 4; 5 ];
  As_graph.add_peering g (asn 2) (asn 3);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 4);
  As_graph.add_peering g (asn 3) (asn 5);
  let outcome = Propagate.compute (As_graph.Indexed.of_graph g) [ origin4 ] in
  check_bool "3 has peer route" true (Propagate.has_route outcome (asn 3));
  check_bool "5 gets nothing (valley-free)" false (Propagate.has_route outcome (asn 5))

let test_propagate_failed_link () =
  let ix = diamond () in
  let failed = Link_set.of_list ix [ (asn 2, asn 4) ] in
  let outcome = Propagate.compute ix ~failed [ origin4 ] in
  Alcotest.(check (list int)) "2 reroutes via peer 3" [ 2; 3; 4 ]
    (path_at outcome (asn 2));
  Alcotest.(check (list int)) "1 now via 3" [ 1; 3; 4 ] (path_at outcome (asn 1))

let test_propagate_disconnected () =
  let ix = diamond () in
  let failed = Link_set.of_list ix [ (asn 2, asn 4); (asn 3, asn 4) ] in
  let outcome = Propagate.compute ix ~failed [ origin4 ] in
  check_int "only origin routed" 1 (Propagate.routed_count outcome);
  check_bool "2 unreachable" false (Propagate.has_route outcome (asn 2))

let test_propagate_prepending () =
  let ann = Announcement.with_prepend 2 origin4 in
  let outcome = Propagate.compute (diamond ()) [ ann ] in
  (match Propagate.route_at outcome (asn 1) with
   | Some r -> check_int "longer path length" 5 (Route.path_length r)
   | None -> Alcotest.fail "expected route");
  check_int "everyone still routed" 4 (Propagate.routed_count outcome)

let test_propagate_export_to () =
  (* Origin 4 announces only to neighbor 2; 3 then learns it across the
     2-3 peering (a customer route at 2 is exportable to peers). *)
  let ann = Announcement.with_export_to (Asn.Set.singleton (asn 2)) origin4 in
  let outcome = Propagate.compute (diamond ()) [ ann ] in
  Alcotest.(check (list int)) "3 via 2, not direct" [ 3; 2; 4 ]
    (path_at outcome (asn 3))

let test_propagate_max_radius () =
  let ann = Announcement.with_max_radius 1 origin4 in
  let outcome = Propagate.compute (diamond ()) [ ann ] in
  check_bool "neighbors reached" true
    (Propagate.has_route outcome (asn 2) && Propagate.has_route outcome (asn 3));
  check_bool "two hops away not reached" false (Propagate.has_route outcome (asn 1))

let test_propagate_loop_detection () =
  let ann =
    Announcement.originate (asn 4) (pfx "10.0.0.0/24")
    |> Announcement.with_fake_suffix [ asn 2 ]
  in
  let outcome = Propagate.compute (diamond ()) [ ann ] in
  check_bool "2 rejects looped path" false (Propagate.has_route outcome (asn 2));
  check_bool "3 accepts" true (Propagate.has_route outcome (asn 3))

let test_propagate_multi_origin () =
  let ann1 = Announcement.originate (asn 1) (pfx "10.0.0.0/24") in
  let outcome = Propagate.compute (diamond ()) [ origin4; ann1 ] in
  check_bool "2 prefers customer origin" true
    (Propagate.winning_announcement outcome (asn 2) = Some 0);
  check_bool "1 keeps its own" true
    (Propagate.winning_announcement outcome (asn 1) = Some 1);
  let captured = Propagate.captured outcome 1 in
  check_bool "1 captured by itself" true (List.exists (Asn.equal (asn 1)) captured)

let test_propagate_forwarding_path () =
  let outcome = Propagate.compute (diamond ()) [ origin4 ] in
  (match Propagate.forwarding_path outcome (asn 1) with
   | Some walk ->
       Alcotest.(check (list int)) "walk to origin" [ 1; 2; 4 ]
         (List.map Asn.to_int walk)
   | None -> Alcotest.fail "expected forwarding path");
  check_bool "next hop of 1" true (Propagate.next_hop outcome (asn 1) = Some (asn 2));
  check_bool "origin has no next hop" true (Propagate.next_hop outcome (asn 4) = None)

let test_propagate_candidates () =
  let outcome = Propagate.compute (diamond ()) [ origin4 ] in
  let cands = Propagate.candidates_at outcome (asn 1) in
  check_int "two candidates" 2 (List.length cands);
  (match cands with
   | best :: _ ->
       check_int "best candidate from 2" 2 (Asn.to_int (Route.first_hop best))
   | [] -> ())

let test_propagate_rejects () =
  Alcotest.check_raises "no announcements"
    (Invalid_argument "Propagate.compute: no announcements")
    (fun () -> ignore (Propagate.compute (diamond ()) []))

(* A route's length lives in a bounded field of its packed word. A
   claimed path long enough that a route could outgrow the field is
   rejected up front, by the full engine and by a delta prepend change
   alike; one hop shorter, it computes with every length intact, so no
   length wrapped into the class bits. *)
let test_propagate_rejects_overlong_path () =
  let ix = diamond () in
  let n = 4 and longest = (1 lsl 20) - 2 in
  let with_len len = Announcement.with_prepend (len - 1) origin4 in
  let rejected f =
    match f () with
    | (_ : Propagate.t) -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "full engine rejects" true
    (rejected (fun () -> Propagate.compute ix [ with_len (longest - n + 2) ]));
  let st = Propagate.Delta.create ix in
  let scratch = Propagate.Delta.create_scratch () in
  ignore (Propagate.Delta.update st scratch [ origin4 ]);
  check_bool "delta prepend change rejects" true
    (rejected (fun () ->
         fst (Propagate.Delta.update st scratch [ with_len (longest - n + 2) ])));
  let init_len = longest - n + 1 in
  let outcome = Propagate.compute ix [ with_len init_len ] in
  check_bool "the longest route stays a customer route" true
    (Propagate.route_class_at outcome (asn 1) = Some `Customer);
  check_int "at its full length" (init_len + 2)
    (Route.path_length (Option.get (Propagate.route_at outcome (asn 1))))

(* Regression for the Workspace aliasing contract: an outcome computed
   through a workspace is a view over the workspace's arrays, so the next
   compute through the same workspace clobbers it in place. If this test
   ever starts failing, outcomes have become copies and every hot path
   that relies on workspace reuse is silently allocating again. *)
let test_workspace_clobbers_retained_outcome () =
  let ix = diamond () in
  let ws = Propagate.Workspace.create () in
  let hop outcome a = Option.map Asn.to_int (Propagate.next_hop outcome a) in
  let first = Propagate.compute ix ~workspace:ws [ origin4 ] in
  Alcotest.(check (option int)) "fresh outcome: 2 forwards to its customer 4"
    (Some 4) (hop first (asn 2));
  (* Same workspace, different origin: 4's prefix now originates at 1, so
     AS 2's best route flips to its provider. *)
  let second =
    Propagate.compute ix ~workspace:ws
      [ Announcement.originate (asn 1) (pfx "10.0.0.0/24") ]
  in
  Alcotest.(check (option int)) "second outcome: 2 forwards to provider 1"
    (Some 1) (hop second (asn 2));
  Alcotest.(check (option int))
    "retained first outcome was clobbered by the second compute"
    (Some 1) (hop first (asn 2));
  (* A workspace-free compute over the same inputs is unaffected. *)
  let plain = Propagate.compute ix [ origin4 ] in
  let _ = Propagate.compute ix ~workspace:ws [ origin4 ] in
  Alcotest.(check (option int)) "plain outcomes are stable"
    (Some 4) (hop plain (asn 2))

let test_copy_owns_arrays () =
  let ix = diamond () in
  let ws = Propagate.Workspace.create () in
  let hop outcome a = Option.map Asn.to_int (Propagate.next_hop outcome a) in
  let first = Propagate.copy (Propagate.compute ix ~workspace:ws [ origin4 ]) in
  let _ =
    Propagate.compute ix ~workspace:ws
      [ Announcement.originate (asn 1) (pfx "10.0.0.0/24") ]
  in
  (* Unlike the raw workspace view pinned above, the copy survives. *)
  Alcotest.(check (option int)) "copied outcome survives the next compute"
    (Some 4) (hop first (asn 2));
  check_int "copy still counts all routed ASes" 4 (Propagate.routed_count first)

(* Retaining a workspace outcome is [compute ~workspace] + [copy]: it must
   allocate strictly less than a cold [compute] (which builds all five
   arrays, two settle arrays and two bucket tables from scratch). *)
let test_workspace_copy_alloc_bound () =
  let ix = diamond () in
  let ws = Propagate.Workspace.create () in
  ignore (Propagate.compute ix ~workspace:ws [ origin4 ] : Propagate.t);
  let bytes f =
    let before = Gc.allocated_bytes () in
    ignore (f () : Propagate.t);
    Gc.allocated_bytes () -. before
  in
  let cold = bytes (fun () -> Propagate.compute ix [ origin4 ]) in
  let miss =
    bytes (fun () -> Propagate.copy (Propagate.compute ix ~workspace:ws [ origin4 ]))
  in
  check_bool "workspace+copy allocates less than a cold compute" true
    (miss < cold)

(* The engine keeps all per-call scratch in the workspace: a plain
   announcement computed through a sized workspace on the Paper-scale
   graph allocates only the outcome record and the announcement's
   metadata, not O(n) arrays, queues or per-node closures. *)
let test_workspace_compute_alloc_free () =
  let g = Topo_gen.generate ~rng:(Rng.of_int 1) Topo_gen.default_params in
  let ix = As_graph.Indexed.of_graph g in
  let ases = Array.of_list (As_graph.ases g) in
  let ann = Announcement.originate ases.(Array.length ases / 2) (pfx "10.0.0.0/24") in
  let ws = Propagate.Workspace.create () in
  ignore (Propagate.compute ix ~workspace:ws [ ann ] : Propagate.t);
  (* Minor words plus major words: O(n) arrays this size bypass the
     minor heap. Emptying the minor heap first keeps a collection (whose
     promotions count as major words) out of the measured window. *)
  let words () =
    let _, _, major = Gc.counters () in
    Gc.minor_words () +. major
  in
  Gc.minor ();
  let before = words () in
  let outcome = Propagate.compute ix ~workspace:ws [ ann ] in
  let bytes = (words () -. before) *. float_of_int (Sys.word_size / 8) in
  check_bool "the compute routed the graph" true
    (Propagate.routed_count outcome = Array.length ases);
  check_bool (Printf.sprintf "allocates under 1 KB (%.0f bytes)" bytes) true
    (bytes < 1024.)

(* ---- Propagate.Delta ------------------------------------------------- *)

(* Every AS agrees between a delta-maintained outcome and a fresh full
   compute: same route (path bytes), same class. *)
let same_outcome ases o_delta o_full =
  List.for_all
    (fun a ->
       (match (Propagate.route_at o_delta a, Propagate.route_at o_full a) with
        | Some r1, Some r2 -> Route.equal r1 r2
        | None, None -> true
        | Some _, None | None, Some _ -> false)
       && Propagate.route_class_at o_delta a = Propagate.route_class_at o_full a)
    ases

let delta_vs_full ix ases anns_of steps =
  let st = Propagate.Delta.create ix in
  let scratch = Propagate.Delta.create_scratch () in
  List.for_all
    (fun (failed, prepend) ->
       let anns = anns_of prepend in
       let o_delta, _ = Propagate.Delta.update st scratch ~failed anns in
       let o_full = Propagate.compute ix ~failed anns in
       same_outcome ases o_delta o_full)
    steps

let test_delta_matches_full_diamond () =
  let ix = diamond () in
  let ases = List.map asn [ 1; 2; 3; 4 ] in
  let link a b = (asn a, asn b) in
  let steps =
    [ (Link_set.empty, 0);                                  (* cold start *)
      (Link_set.of_list ix [ link 2 4 ], 0);                (* fail on-tree *)
      (Link_set.empty, 0);                                  (* restore *)
      (Link_set.of_list ix [ link 1 3 ], 0);                (* off-tree *)
      (Link_set.of_list ix [ link 1 3; link 2 4 ], 0);      (* pile on *)
      (Link_set.of_list ix [ link 2 4; link 3 4 ], 2);      (* swap + prepend *)
      (Link_set.empty, 0);                                  (* all back *)
      (Link_set.empty, 2) ]                                 (* prepend only *)
  in
  check_bool "delta matches full across a diamond event sequence" true
    (delta_vs_full ix ases
       (fun prepend -> [ Announcement.with_prepend prepend origin4 ])
       steps)

let test_delta_stop_early_off_tree () =
  let ix = diamond () in
  let st = Propagate.Delta.create ix in
  let scratch = Propagate.Delta.create_scratch () in
  let _, k0 = Propagate.Delta.update st scratch [ origin4 ] in
  check_bool "cold start is a full rebuild" true (k0 = Propagate.Delta.Full_rebuild);
  (* 1-3 carries no selected route (1 tie-breaks to 2, 3 goes direct). *)
  let failed = Link_set.of_list ix [ (asn 1, asn 3) ] in
  let _, k1 = Propagate.Delta.update st scratch ~failed [ origin4 ] in
  (match k1 with
   | Propagate.Delta.Steps { links_applied; frontier; stop_early } ->
       check_int "one link applied" 1 links_applied;
       check_int "no route touched" 0 frontier;
       check_int "stop-early" 1 stop_early
   | Propagate.Delta.Full_rebuild -> Alcotest.fail "expected a delta step");
  (* 2-4 is on-tree for 1, 2 and the frontier must cover both. *)
  let failed = Link_set.of_list ix [ (asn 1, asn 3); (asn 2, asn 4) ] in
  let _, k2 = Propagate.Delta.update st scratch ~failed [ origin4 ] in
  (match k2 with
   | Propagate.Delta.Steps { frontier; stop_early; _ } ->
       check_bool "frontier covers the rerouted ASes" true (frontier >= 2);
       check_int "no stop-early this time" 0 stop_early
   | Propagate.Delta.Full_rebuild -> Alcotest.fail "expected a delta step")

let test_delta_restore_creates_route () =
  let ix = diamond () in
  let st = Propagate.Delta.create ix in
  let scratch = Propagate.Delta.create_scratch () in
  let cut = Link_set.of_list ix [ (asn 2, asn 4); (asn 3, asn 4) ] in
  let o, _ = Propagate.Delta.update st scratch ~failed:cut [ origin4 ] in
  check_int "only the origin routed while cut off" 1 (Propagate.routed_count o);
  let half = Link_set.of_list ix [ (asn 2, asn 4) ] in
  let o, _ = Propagate.Delta.update st scratch ~failed:half [ origin4 ] in
  check_int "restore reconnects everyone" 4 (Propagate.routed_count o);
  Alcotest.(check (list int)) "2 reroutes via peer 3" [ 2; 3; 4 ]
    (path_at o (asn 2))

(* Regression: Gao-Rexford preference is not monotone along an edge.
   Restoring 5-6 lets 5 switch from its provider route [5,2,1] (len 3) to
   the class-better peer route [5,6,7,8,1] (len 5); from its customer 9's
   perspective the candidate via 5 is provider-class either way, so it
   *worsened* (len 4 -> 6) and 9 must re-select its other provider 10. A
   pure improvement wave leaves 9 stranded on a stale via-5 entry (found
   by the lagged random-event sweep; shrunk from Topo_gen seed 22). *)
let test_delta_restore_class_up_len_up () =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info ""))
    [ 1; 2; 5; 6; 7; 8; 9; 10 ];
  let pc p c = As_graph.add_provider_customer g ~provider:(asn p) ~customer:(asn c) in
  pc 2 1; pc 2 5; pc 2 10;
  As_graph.add_peering g (asn 5) (asn 6);
  pc 6 7; pc 7 8; pc 8 1;
  pc 5 9; pc 10 9;
  let ix = As_graph.Indexed.of_graph g in
  let ann = [ Announcement.originate (asn 1) (pfx "10.0.0.0/24") ] in
  let st = Propagate.Delta.create ix in
  let scratch = Propagate.Delta.create_scratch () in
  let cut = Link_set.of_list ix [ (asn 5, asn 6) ] in
  let o, _ = Propagate.Delta.update st scratch ~failed:cut ann in
  (* Tie at 9 between providers 5 and 10 (both len 4): lower ASN wins. *)
  Alcotest.(check (list int)) "9 starts on 5" [ 9; 5; 2; 1 ] (path_at o (asn 9));
  let o, kind = Propagate.Delta.update st scratch ann in
  check_bool "restore is a delta step" true
    (match kind with Propagate.Delta.Steps _ -> true | _ -> false);
  Alcotest.(check (list int)) "5 takes the class-better peer route"
    [ 5; 6; 7; 8; 1 ] (path_at o (asn 5));
  check_bool "peer class at 5" true
    (Propagate.route_class_at o (asn 5) = Some `Peer);
  Alcotest.(check (list int)) "9 re-selects its other provider"
    [ 9; 10; 2; 1 ] (path_at o (asn 9));
  check_bool "whole outcome matches full compute" true
    (same_outcome
       (List.map asn [ 1; 2; 5; 6; 7; 8; 9; 10 ])
       o (Propagate.compute ix ann))

let test_delta_unsupported_falls_back () =
  let ix = diamond () in
  let st = Propagate.Delta.create ix in
  let scratch = Propagate.Delta.create_scratch () in
  let scoped =
    { origin4 with Announcement.export_to = Some (Asn.Set.of_list [ asn 2 ]) }
  in
  let o, k = Propagate.Delta.update st scratch [ scoped ] in
  check_bool "falls back to a full rebuild" true (k = Propagate.Delta.Full_rebuild);
  (* The origin only announces to 2, so 3 must hear it the long way round. *)
  Alcotest.(check (list int)) "and honors the scoping" [ 3; 2; 4 ]
    (path_at o (asn 3));
  (* Still unsupported on the second identical call: never diffed. *)
  let _, k2 = Propagate.Delta.update st scratch [ scoped ] in
  check_bool "stays on the full path" true (k2 = Propagate.Delta.Full_rebuild)

(* Random event sequences over generated topologies: the delta state
   equals a fresh full compute at every sync point. Syncing only every
   [lag]-th event makes single updates apply several restores and fails
   back to back — the mix that exposed the stale-dependent bug the lag-1
   version of this law missed. *)
let prop_delta_equals_full =
  QCheck.Test.make ~name:"delta after random event sequence = full compute"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
       let rng = Rng.of_int seed in
       let g = Topo_gen.generate ~rng Topo_gen.small_params in
       let ix = As_graph.Indexed.of_graph g in
       let ases = As_graph.ases g in
       let links = Array.of_list (As_graph.links g) in
       let origin = Rng.pick rng (Array.of_list ases) in
       let anns_of prepend =
         [ Announcement.with_prepend prepend
             (Announcement.originate origin (pfx "10.0.0.0/24")) ]
       in
       let failed = ref Link_set.empty and pairs = ref Pairs.empty in
       let prepend = ref 0 in
       let lag = 1 + Rng.int rng 4 in
       let steps =
         List.filteri
           (fun i _ -> (i + 1) mod lag = 0)
           (List.init 16 (fun _ ->
                let roll = Rng.float rng 1.0 in
                if roll < 0.45 then begin
                  let a, b, _ = Rng.pick rng links in
                  failed := Link_set.add ix a b !failed;
                  pairs := Pairs.add (norm a b) !pairs
                end
                else if roll < 0.8 then begin
                  match Pairs.elements !pairs with
                  | [] -> ()
                  | l ->
                      let a, b = Rng.pick rng (Array.of_list l) in
                      failed := Link_set.remove ix a b !failed;
                      pairs := Pairs.remove (a, b) !pairs
                end
                else prepend := (if !prepend = 0 then 2 else 0);
                (!failed, !prepend)))
       in
       delta_vs_full ix ases anns_of steps)

(* Frontier soundness: the reported frontier of a delta step is at least
   the number of ASes whose stored route record — class, next hop, or
   path length — changed. (Rendered AS paths can additionally change
   deep downstream when an upstream node swaps to an equal-quality next
   hop; those nodes' records are untouched and deliberately outside the
   frontier.) *)
let prop_delta_frontier_covers_changes =
  QCheck.Test.make ~name:"delta frontier covers every changed route"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
       let rng = Rng.of_int seed in
       let g = Topo_gen.generate ~rng Topo_gen.small_params in
       let ix = As_graph.Indexed.of_graph g in
       let ases = As_graph.ases g in
       let links = Array.of_list (As_graph.links g) in
       let origin = Rng.pick rng (Array.of_list ases) in
       let anns = [ Announcement.originate origin (pfx "10.0.0.0/24") ] in
       let a, b, _ = Rng.pick rng links in
       let failed = Link_set.of_list ix [ (a, b) ] in
       let st = Propagate.Delta.create ix in
       let scratch = Propagate.Delta.create_scratch () in
       let before = Propagate.copy (fst (Propagate.Delta.update st scratch anns)) in
       let after, kind = Propagate.Delta.update st scratch ~failed anns in
       let record outcome x =
         ( Propagate.route_class_at outcome x,
           Propagate.next_hop outcome x,
           match Propagate.route_at outcome x with
           | Some r -> List.length r.Route.as_path
           | None -> -1 )
       in
       let changed =
         List.length
           (List.filter (fun x -> record before x <> record after x) ases)
       in
       match kind with
       | Propagate.Delta.Steps { frontier; _ } -> frontier >= changed
       | Propagate.Delta.Full_rebuild -> false)

let prop_propagate_valley_free =
  QCheck.Test.make ~name:"propagation yields valley-free loop-free paths"
    ~count:15 QCheck.(int_bound 10_000)
    (fun seed ->
       let rng = Rng.of_int seed in
       let g = Topo_gen.generate ~rng Topo_gen.small_params in
       let ix = As_graph.Indexed.of_graph g in
       let ases = Array.of_list (As_graph.ases g) in
       let origin = Rng.pick rng ases in
       let ann = Announcement.originate origin (pfx "10.0.0.0/24") in
       let outcome = Propagate.compute ix [ ann ] in
       List.for_all
         (fun a ->
            match Propagate.route_at outcome a with
            | None -> true
            | Some r ->
                let path = r.Route.as_path in
                let distinct = List.sort_uniq Asn.compare path in
                List.length distinct = List.length path
                && Paths.valley_free g path)
         (Array.to_list ases))

let prop_propagate_connected_coverage =
  QCheck.Test.make ~name:"every AS gets a route in a connected topology"
    ~count:10 QCheck.(int_bound 10_000)
    (fun seed ->
       let rng = Rng.of_int seed in
       let g = Topo_gen.generate ~rng Topo_gen.small_params in
       let ix = As_graph.Indexed.of_graph g in
       let ases = Array.of_list (As_graph.ases g) in
       let origin = Rng.pick rng ases in
       let ann = Announcement.originate origin (pfx "10.0.0.0/24") in
       let outcome = Propagate.compute ix [ ann ] in
       Propagate.routed_count outcome = Array.length ases)

(* ---- Mrt ------------------------------------------------------------ *)

let sample_records () =
  [ { Mrt.timestamp = 1000.5;
      peer_as = asn 64512; local_as = asn 12654;
      peer_ip = Ipv4.of_string "192.0.2.1"; local_ip = Ipv4.of_string "192.0.2.254";
      message =
        Mrt.Update
          { withdrawn = [];
            as_path = [ asn 64512; asn 3356; asn 24940 ];
            next_hop = Some (Ipv4.of_string "192.0.2.1");
            communities = [ (64512, 666) ];
            nlri = [ pfx "78.46.0.0/15" ] } };
    { Mrt.timestamp = 1001.;
      peer_as = asn 64512; local_as = asn 12654;
      peer_ip = Ipv4.of_string "192.0.2.1"; local_ip = Ipv4.of_string "192.0.2.254";
      message =
        Mrt.Update
          { withdrawn = [ pfx "10.0.0.0/8"; pfx "10.1.0.0/16" ];
            as_path = []; next_hop = None; communities = []; nlri = [] } };
    { Mrt.timestamp = 1002.25;
      peer_as = asn 1; local_as = asn 12654;
      peer_ip = Ipv4.of_string "192.0.2.7"; local_ip = Ipv4.of_string "192.0.2.254";
      message = Mrt.Keepalive } ]

let test_mrt_roundtrip () =
  let records = sample_records () in
  let decoded = Mrt.decode (Mrt.encode records) in
  check_int "count" (List.length records) (List.length decoded);
  List.iter2
    (fun (a : Mrt.record) (b : Mrt.record) ->
       check_bool "timestamp" true
         (Float.abs (a.Mrt.timestamp -. b.Mrt.timestamp) < 1e-5);
       check_bool "peer as" true (Asn.equal a.Mrt.peer_as b.Mrt.peer_as);
       check_bool "message" true
         (match (a.Mrt.message, b.Mrt.message) with
          | Mrt.Keepalive, Mrt.Keepalive -> true
          | Mrt.Update u, Mrt.Update v ->
              List.equal Prefix.equal u.withdrawn v.withdrawn
              && List.equal Asn.equal u.as_path v.as_path
              && u.communities = v.communities
              && List.equal Prefix.equal u.nlri v.nlri
          | Mrt.Keepalive, Mrt.Update _ | Mrt.Update _, Mrt.Keepalive -> false))
    records decoded

let test_mrt_long_as_path () =
  let path = List.init 300 (fun i -> asn (i + 1)) in
  let r =
    { Mrt.timestamp = 0.; peer_as = asn 1; local_as = asn 2;
      peer_ip = Ipv4.of_string "192.0.2.1"; local_ip = Ipv4.of_string "192.0.2.2";
      message =
        Mrt.Update
          { withdrawn = []; as_path = path; next_hop = None; communities = [];
            nlri = [ pfx "10.0.0.0/8" ] } }
  in
  match Mrt.decode (Mrt.encode [ r ]) with
  | [ { Mrt.message = Mrt.Update u; _ } ] ->
      check_int "full path survives" 300 (List.length u.as_path);
      check_bool "order preserved" true (List.equal Asn.equal path u.as_path)
  | _ -> Alcotest.fail "expected one update"

let test_mrt_malformed () =
  check_bool "truncated raises" true
    (try ignore (Mrt.decode "\x00\x00\x00\x01\x00\x11"); false
     with Mrt.Malformed _ -> true);
  check_bool "garbage raises" true
    (try ignore (Mrt.decode (String.make 64 '\xAB')); false
     with Mrt.Malformed _ -> true)

let test_mrt_update_bridge () =
  let session = { Update.collector = "rrc00"; peer = asn 64512 } in
  let route = Route.make (pfx "10.0.0.0/8") [ asn 64512; asn 1 ] in
  let u = { Update.time = 42.5; session; kind = Update.Announce route } in
  let record =
    Mrt.record_of_update ~local_as:(asn 12654)
      ~local_ip:(Ipv4.of_string "192.0.2.254")
      ~peer_ip:(Ipv4.of_string "192.0.2.1") u
  in
  match Mrt.update_of_record ~collector:"rrc00" record with
  | [ u' ] ->
      check_bool "same session" true (Update.session_equal session u'.Update.session);
      check_bool "same prefix" true (Prefix.equal (Update.prefix u) (Update.prefix u'));
      check_bool "announce survives" true (Update.is_announce u')
  | _ -> Alcotest.fail "expected one update"

let prop_mrt_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 10)
        (map2
           (fun addr len -> Prefix.make (Ipv4.of_int_trunc addr) len)
           (map (fun x -> x * 256) (int_bound 0xFFFFFF))
           (int_range 8 32)))
  in
  QCheck.Test.make ~name:"mrt nlri roundtrip" ~count:100 (QCheck.make gen)
    (fun nlri ->
       let r =
         { Mrt.timestamp = 77.; peer_as = asn 5; local_as = asn 6;
           peer_ip = Ipv4.of_string "192.0.2.1";
           local_ip = Ipv4.of_string "192.0.2.2";
           message =
             Mrt.Update
               { withdrawn = []; as_path = [ asn 5 ]; next_hop = None;
                 communities = []; nlri } }
       in
       match Mrt.decode (Mrt.encode [ r ]) with
       | [ { Mrt.message = Mrt.Update u; _ } ] ->
           List.equal Prefix.equal nlri u.nlri
       | _ -> false)

(* Versions are drawn from one process-wide counter. Four domains
   creating states at once must still get pairwise distinct stamps: a
   reissued stamp could make a caller skip a per-session scan whose
   routes changed. *)
let test_delta_versions_distinct_across_domains () =
  let ix = pair_graph [ 1; 2; 3 ] in
  let per_domain = 50_000 in
  let stamps =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Array.init per_domain (fun _ ->
                Propagate.Delta.version (Propagate.Delta.create ix))))
    |> List.map Domain.join
    |> Array.concat
  in
  Array.sort Int.compare stamps;
  let distinct = ref (if Array.length stamps > 0 then 1 else 0) in
  for i = 1 to Array.length stamps - 1 do
    if stamps.(i) <> stamps.(i - 1) then incr distinct
  done;
  check_int "every stamp distinct" (4 * per_domain) !distinct

let small_world seed =
  let rng = Rng.of_int seed in
  let g = Topo_gen.generate ~rng:(Rng.split rng) Topo_gen.small_params in
  let addressing = Addressing.allocate ~rng:(Rng.split rng) g in
  let collectors =
    Collector.standard_setup ~rng:(Rng.split rng) ~sessions_per_collector:4 g addressing
  in
  (rng, Dynamics.make_world g addressing collectors)

let tiny_config =
  { Dynamics.short_config with
    Dynamics.duration = 6. *. 3600.;
    base_churn_rate = 0.2;
    resets_per_session = 0.2 }

(* ---- Rpki and ROV ----------------------------------------------------- *)

let test_rpki_validation () =
  let t =
    Rpki.add_roa Rpki.empty
      { Rpki.roa_prefix = pfx "78.46.0.0/15"; max_length = 20; authorized = asn 5 }
  in
  check_bool "valid exact" true
    (Rpki.validate t (pfx "78.46.0.0/15") (asn 5) = Rpki.Valid);
  check_bool "valid within max length" true
    (Rpki.validate t (pfx "78.46.16.0/20") (asn 5) = Rpki.Valid);
  check_bool "invalid origin" true
    (Rpki.validate t (pfx "78.46.0.0/15") (asn 6) = Rpki.Invalid);
  check_bool "invalid over-specific" true
    (Rpki.validate t (pfx "78.46.16.0/24") (asn 5) = Rpki.Invalid);
  check_bool "not found outside" true
    (Rpki.validate t (pfx "10.0.0.0/8") (asn 5) = Rpki.Not_found);
  check_bool "bad max length rejected" true
    (try ignore (Rpki.add_roa Rpki.empty
                   { Rpki.roa_prefix = pfx "10.0.0.0/16"; max_length = 8;
                     authorized = asn 1 }); false
     with Invalid_argument _ -> true)

let test_add_roa_bounds () =
  let roa max_length =
    { Rpki.roa_prefix = pfx "10.0.0.0/16"; max_length; authorized = asn 1 }
  in
  let rejects ml =
    try ignore (Rpki.add_roa Rpki.empty (roa ml)); false
    with Invalid_argument _ -> true
  in
  (* boundaries: exactly the prefix length and exactly /32 are legal *)
  check_int "max_length = length accepted" 1 (Rpki.size (Rpki.add_roa Rpki.empty (roa 16)));
  check_int "max_length = 32 accepted" 1 (Rpki.size (Rpki.add_roa Rpki.empty (roa 32)));
  check_bool "max_length below length rejected" true (rejects 15);
  check_bool "max_length above 32 rejected" true (rejects 33);
  check_bool "negative max_length rejected" true (rejects (-1));
  (* a /32 ROA leaves no slack: only max_length 32 works *)
  let host_roa ml =
    { Rpki.roa_prefix = pfx "10.0.0.1/32"; max_length = ml; authorized = asn 1 }
  in
  check_int "host ROA accepted" 1 (Rpki.size (Rpki.add_roa Rpki.empty (host_roa 32)));
  check_bool "host ROA max_length 31 rejected" true
    (try ignore (Rpki.add_roa Rpki.empty (host_roa 31)); false
     with Invalid_argument _ -> true);
  (* max_length slack widens what validates, never the origin *)
  let t = Rpki.add_roa Rpki.empty (roa 24) in
  check_bool "more-specific within slack valid" true
    (Rpki.validate t (pfx "10.0.1.0/24") (asn 1) = Rpki.Valid);
  check_bool "beyond slack invalid" true
    (Rpki.validate t (pfx "10.0.1.0/25") (asn 1) = Rpki.Invalid);
  check_bool "slack does not authorize another origin" true
    (Rpki.validate t (pfx "10.0.1.0/24") (asn 2) = Rpki.Invalid)

let test_rov_blocks_origin_hijack () =
  (* diamond: victim 4 announces; attacker 1 hijacks; with ROV at 2 and 3
     the hijack goes nowhere because 1's bogus origin is Invalid. *)
  let graph = diamond () in
  let table =
    Rpki.add_roa Rpki.empty
      { Rpki.roa_prefix = pfx "10.0.0.0/24"; max_length = 24; authorized = asn 4 }
  in
  let bogus = Announcement.originate (asn 1) (pfx "10.0.0.0/24") in
  let deployers = Asn.Set.of_list [ asn 2; asn 3 ] in
  let outcome =
    Propagate.compute graph ~rov:(table, deployers) [ origin4; bogus ]
  in
  check_bool "2 keeps legit route" true
    (Propagate.winning_announcement outcome (asn 2) = Some 0);
  check_bool "3 keeps legit route" true
    (Propagate.winning_announcement outcome (asn 3) = Some 0);
  (* 1 originates the bogus route itself and keeps it *)
  check_bool "attacker keeps own" true
    (Propagate.winning_announcement outcome (asn 1) = Some 1)

let test_rov_spares_forged_origin () =
  (* interception-style forged origin ([1; 4]) presents a Valid origin, so
     even full ROV deployment does not stop it *)
  let graph = diamond () in
  let table =
    Rpki.add_roa Rpki.empty
      { Rpki.roa_prefix = pfx "10.0.0.0/24"; max_length = 24; authorized = asn 4 }
  in
  let forged =
    Announcement.originate (asn 1) (pfx "10.0.0.0/24")
    |> Announcement.with_fake_suffix [ asn 4 ]
  in
  let all = Asn.Set.of_list [ asn 1; asn 2; asn 3; asn 4 ] in
  let outcome = Propagate.compute graph ~rov:(table, all) [ forged ] in
  check_bool "forged origin passes ROV at 2" true (Propagate.has_route outcome (asn 2));
  check_bool "forged origin passes ROV at 3" true (Propagate.has_route outcome (asn 3))

(* ---- TABLE_DUMP_V2 ---------------------------------------------------- *)

let test_rib_roundtrip () =
  let rib =
    { Mrt.rib_time = 5000.;
      collector_id = Ipv4.of_string "192.0.2.254";
      view_name = "quicksand-bview";
      peers = [| (Ipv4.of_string "192.0.2.1", asn 64512);
                 (Ipv4.of_string "192.0.2.2", asn 3356) |];
      rib_entries =
        [ (pfx "78.46.0.0/15",
           [ (0, Route.make (pfx "78.46.0.0/15") [ asn 64512; asn 24940 ]);
             (1, Route.make (pfx "78.46.0.0/15") [ asn 3356; asn 24940 ]) ]);
          (pfx "10.0.0.0/8",
           [ (1, Route.make (pfx "10.0.0.0/8") [ asn 3356; asn 7018 ]) ]) ] }
  in
  let rib' = Mrt.decode_rib (Mrt.encode_rib rib) in
  check_bool "view name" true (rib'.Mrt.view_name = rib.Mrt.view_name);
  check_int "peer count" 2 (Array.length rib'.Mrt.peers);
  check_bool "peer ASes" true
    (Asn.equal (snd rib'.Mrt.peers.(1)) (asn 3356));
  check_int "entry count" 2 (List.length rib'.Mrt.rib_entries);
  let p, entries = List.hd rib'.Mrt.rib_entries in
  check_bool "first prefix" true (Prefix.equal p (pfx "78.46.0.0/15"));
  check_int "entries for first prefix" 2 (List.length entries);
  let idx, route = List.hd entries in
  check_int "peer index" 0 idx;
  check_bool "path survives" true
    (List.equal Asn.equal route.Route.as_path [ asn 64512; asn 24940 ])

let test_rib_of_initial () =
  let rng, world = small_world 21 in
  let initial, _ = Dynamics.run ~rng tiny_config world ~emit:(fun _ -> ()) in
  let rib =
    Mrt.rib_of_initial ~time:0. ~collector_id:(Ipv4.of_string "192.0.2.254")
      ~view_name:"bview" ~peer_ip:(fun _ -> Ipv4.of_string "192.0.2.1")
      initial
  in
  let total_routes =
    Update.Session_map.fold
      (fun _ table acc -> acc + Prefix.Map.cardinal table)
      initial 0
  in
  let rib_routes =
    List.fold_left (fun acc (_, es) -> acc + List.length es) 0 rib.Mrt.rib_entries
  in
  check_int "every table entry present" total_routes rib_routes;
  let rib' = Mrt.decode_rib (Mrt.encode_rib rib) in
  check_int "roundtrip preserves routes" rib_routes
    (List.fold_left (fun acc (_, es) -> acc + List.length es) 0 rib'.Mrt.rib_entries)

(* ---- Collector ------------------------------------------------------ *)

let test_collector_visibility_rules () =
  let session feed =
    { Collector.id = { Update.collector = "rrc00"; peer = asn 1 };
      peer_ip = Ipv4.of_string "192.0.2.1"; feed }
  in
  check_bool "full sees provider" true
    (Collector.visible (session Collector.Full) ~route_class:`Provider);
  check_bool "c+p sees peer" true
    (Collector.visible (session Collector.Customer_and_peer) ~route_class:`Peer);
  check_bool "c+p hides provider" false
    (Collector.visible (session Collector.Customer_and_peer) ~route_class:`Provider);
  check_bool "c-only hides peer" false
    (Collector.visible (session Collector.Customer_only) ~route_class:`Peer);
  check_bool "c-only sees origin" true
    (Collector.visible (session Collector.Customer_only) ~route_class:`Origin)

let test_collector_setup () =
  let rng = Rng.of_int 3 in
  let g = Topo_gen.generate ~rng:(Rng.split rng) Topo_gen.small_params in
  let addressing = Addressing.allocate ~rng:(Rng.split rng) g in
  let collectors = Collector.standard_setup ~rng ~sessions_per_collector:5 g addressing in
  check_int "four collectors" 4 (List.length collectors);
  List.iter
    (fun c ->
       check_int "five sessions" 5 (List.length c.Collector.sessions);
       let peers = List.map (fun s -> s.Collector.id.Update.peer) c.Collector.sessions in
       check_int "distinct peers" 5 (List.length (List.sort_uniq Asn.compare peers)))
    collectors

(* ---- Session_reset --------------------------------------------------- *)

let mk_update time peer p path =
  { Update.time;
    session = { Update.collector = "rrc00"; peer = asn peer };
    kind = Update.Announce (Route.make p (List.map asn path)) }

let test_reset_filter_passes_normal () =
  let out = ref [] in
  let f = Session_reset.create ~emit:(fun u -> out := u :: !out) () in
  for i = 0 to 19 do
    Session_reset.push f
      (mk_update (float_of_int (i * 400)) 1 (pfx "10.0.0.0/8") [ 1; 2 ])
  done;
  Session_reset.flush f;
  check_int "all passed" 20 (List.length !out);
  let stats = Session_reset.stats f in
  check_int "nothing dropped" 0 stats.Session_reset.dropped;
  check_int "no bursts" 0 (List.length stats.Session_reset.bursts)

let test_reset_filter_drops_table_transfer () =
  let out = ref [] in
  let config = { Session_reset.default_config with Session_reset.min_prefixes = 50 } in
  let f = Session_reset.create ~config ~emit:(fun u -> out := u :: !out) () in
  Session_reset.preload_table f { Update.collector = "rrc00"; peer = asn 1 } 200;
  Session_reset.push f (mk_update 0. 1 (pfx "10.0.0.0/8") [ 1; 2 ]);
  for i = 0 to 199 do
    let p = Prefix.make (Ipv4.of_octets 10 (i mod 256) 0 0) 16 in
    Session_reset.push f (mk_update (5000. +. (float_of_int i *. 0.1)) 1 p [ 1; 2 ])
  done;
  Session_reset.push f (mk_update 9000. 1 (pfx "10.0.0.0/8") [ 1; 3 ]);
  Session_reset.flush f;
  let stats = Session_reset.stats f in
  check_int "one burst detected" 1 (List.length stats.Session_reset.bursts);
  check_bool "most of the transfer dropped" true (stats.Session_reset.dropped >= 150);
  check_bool "normal updates survive" true
    (List.exists (fun u -> u.Update.time = 0.) !out
     && List.exists (fun u -> u.Update.time = 9000.) !out)

let test_reset_filter_per_session () =
  let out = ref [] in
  let config = { Session_reset.default_config with Session_reset.min_prefixes = 50 } in
  let f = Session_reset.create ~config ~emit:(fun u -> out := u :: !out) () in
  for i = 0 to 99 do
    let p = Prefix.make (Ipv4.of_octets 10 i 0 0) 16 in
    Session_reset.push f (mk_update (float_of_int i *. 0.1) 1 p [ 1; 2 ]);
    if i mod 10 = 0 then
      Session_reset.push f
        (mk_update (float_of_int i *. 0.1) 2 (pfx "11.0.0.0/8") [ 2; 3 ])
  done;
  Session_reset.flush f;
  let b_updates =
    List.filter (fun u -> Asn.to_int u.Update.session.Update.peer = 2) !out
  in
  check_int "other session untouched" 10 (List.length b_updates)

(* ---- Dynamics -------------------------------------------------------- *)

let test_dynamics_time_ordered () =
  let rng, world = small_world 5 in
  let last = ref neg_infinity in
  let monotone = ref true in
  let _, stats =
    Dynamics.run ~rng tiny_config world ~emit:(fun u ->
        if u.Update.time < !last then monotone := false;
        last := u.Update.time)
  in
  check_bool "emitted in time order" true !monotone;
  check_bool "something happened" true (stats.Dynamics.updates_emitted > 0)

let test_dynamics_paths_start_with_peer () =
  let rng, world = small_world 6 in
  let ok = ref true in
  let _, _ =
    Dynamics.run ~rng tiny_config world ~emit:(fun u ->
        match u.Update.kind with
        | Update.Announce r ->
            if not (Asn.equal (Route.first_hop r) u.Update.session.Update.peer) then
              ok := false
        | Update.Withdraw _ -> ())
  in
  check_bool "exported paths start with the session peer" true !ok

let test_dynamics_initial_consistent () =
  let rng, world = small_world 7 in
  let initial, _ = Dynamics.run ~rng tiny_config world ~emit:(fun _ -> ()) in
  Update.Session_map.iter
    (fun session table ->
       Prefix.Map.iter
         (fun p (r : Route.t) ->
            check_bool "table keyed by route prefix" true
              (Prefix.equal p r.Route.prefix);
            check_bool "route from the session peer" true
              (Asn.equal (Route.first_hop r) session.Update.peer))
         table)
    initial

let test_dynamics_deterministic () =
  let run seed =
    let rng, world = small_world seed in
    let count = ref 0 in
    let _, stats = Dynamics.run ~rng tiny_config world ~emit:(fun _ -> incr count) in
    (!count, stats.Dynamics.churn_events)
  in
  check_bool "same seed, same stream" true (run 9 = run 9)

let test_dynamics_stats_consistent () =
  let rng, world = small_world 10 in
  let count = ref 0 in
  let _, stats = Dynamics.run ~rng tiny_config world ~emit:(fun _ -> incr count) in
  check_int "emit count matches stats" !count stats.Dynamics.updates_emitted;
  check_int "announce+withdraw = total"
    stats.Dynamics.updates_emitted
    (stats.Dynamics.announces + stats.Dynamics.withdraws)

(* Convergence delays and reset replays near the end of the run schedule
   updates past the horizon; those must be dropped and counted, never
   emitted. Seed 5 under [tiny_config] overshoots reliably. *)
let test_dynamics_horizon_clamp () =
  let rng, world = small_world 5 in
  let max_t = ref neg_infinity in
  let _, stats =
    Dynamics.run ~rng tiny_config world ~emit:(fun u ->
        max_t := Float.max !max_t u.Update.time)
  in
  check_bool "no update beyond the horizon" true
    (!max_t <= tiny_config.Dynamics.duration);
  check_bool "overshooting updates counted as dropped" true
    (stats.Dynamics.post_horizon_dropped > 0)

(* Revert events scheduled past the horizon must still restore the
   failed-link state to baseline (without emitting anything). The second
   config turns trace churn on, whose Up events restore an origin's
   uplinks through the same revert path. *)
let test_dynamics_reverts_past_horizon () =
  List.iter
    (fun config ->
       List.iter
         (fun seed ->
            let rng, world = small_world seed in
            let _, stats = Dynamics.run ~rng config world ~emit:(fun _ -> ()) in
            check_int "all failures reverted by the end" 0
              stats.Dynamics.final_failed)
         [ 5; 9; 23 ])
    [ tiny_config;
      { tiny_config with Dynamics.session_churn = Some Churn.pareto_day } ]

let dynamics_stream config world rng =
  let buf = Buffer.create (1 lsl 16) in
  let ppf = Format.formatter_of_buffer buf in
  let _, stats =
    Dynamics.run ~rng config world ~emit:(fun u ->
        Format.fprintf ppf "%a@." Update.pp u)
  in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, stats)

(* The delta engine is a pure reimplementation of propagation: same seed,
   byte-identical stream with delta repair on and off (and the delta run
   must actually take delta steps for the claim to mean anything). *)
let test_dynamics_delta_transparent () =
  let run delta =
    let rng, world = small_world 13 in
    dynamics_stream { tiny_config with Dynamics.delta } world rng
  in
  let on, s_on = run true in
  let off, s_off = run false in
  check_bool "streams byte-identical" true (String.equal on off);
  check_bool "delta steps taken" true (s_on.Dynamics.delta_steps > 0);
  check_int "delta-off runs everything full" 0 s_off.Dynamics.delta_steps;
  check_bool "delta replaces full recomputes" true
    (s_on.Dynamics.full_recomputations < s_off.Dynamics.full_recomputations);
  check_int "engines agree on request count"
    s_off.Dynamics.full_recomputations
    (s_on.Dynamics.full_recomputations + s_on.Dynamics.delta_steps)

let prop_dynamics_delta_identical =
  QCheck.Test.make ~name:"delta on/off streams identical across seeds"
    ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
       let run delta =
         let rng, world = small_world seed in
         dynamics_stream { tiny_config with Dynamics.delta } world rng
       in
       let on, _ = run true in
       let off, _ = run false in
       String.equal on off)

(* Property: the reset filter never drops anything from a burst-free
   stream (sparse updates across many prefixes). *)
let prop_reset_filter_no_false_positives =
  QCheck.Test.make ~name:"reset filter passes burst-free streams" ~count:50
    QCheck.(pair (int_bound 1000) (int_range 1 60))
    (fun (seed, n) ->
       let rng = Rng.of_int seed in
       let out = ref 0 in
       let f = Session_reset.create ~emit:(fun _ -> incr out) () in
       let time = ref 0. in
       for i = 0 to n - 1 do
         time := !time +. 200. +. Rng.float rng 400.;
         Session_reset.push f
           (mk_update !time 1
              (Prefix.make (Ipv4.of_octets 10 (i mod 200) 0 0) 16)
              [ 1; 2 ])
       done;
       Session_reset.flush f;
       !out = n && (Session_reset.stats f).Session_reset.bursts = [])

(* Property: ROV never changes routing when nothing is invalid. *)
let prop_rov_noop_when_valid =
  QCheck.Test.make ~name:"ROV is a no-op for valid announcements" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
       let rng = Rng.of_int seed in
       let g = Topo_gen.generate ~rng Topo_gen.small_params in
       let ix = As_graph.Indexed.of_graph g in
       let addressing = Addressing.allocate ~rng g in
       let table = Rpki.of_addressing addressing in
       let all = Asn.Set.of_list (As_graph.ases g) in
       match Addressing.announced addressing with
       | [] -> true
       | (p, o) :: _ ->
           let ann = Announcement.originate o p in
           let plain = Propagate.compute ix [ ann ] in
           let roved = Propagate.compute ix ~rov:(table, all) [ ann ] in
           List.for_all
             (fun a ->
                match (Propagate.route_at plain a, Propagate.route_at roved a) with
                | Some r1, Some r2 -> Route.equal r1 r2
                | None, None -> true
                | Some _, None | None, Some _ -> false)
             (As_graph.ases g))

(* Property: RIB snapshots round-trip for arbitrary peer/entry shapes. *)
let prop_rib_roundtrip =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 1 12)
           (pair (map (fun x -> (x * 1024) land 0xFFFFFF00) nat) (int_range 8 30))))
  in
  QCheck.Test.make ~name:"TABLE_DUMP_V2 roundtrip" ~count:60 (QCheck.make gen)
    (fun (n_peers, raw_prefixes) ->
       let peers =
         Array.init n_peers (fun i ->
             (Ipv4.of_octets 192 0 2 (i + 1), asn (64512 + i)))
       in
       let rib_entries =
         raw_prefixes
         |> List.map (fun (addr, len) -> Prefix.make (Ipv4.of_int_trunc addr) len)
         |> List.sort_uniq Prefix.compare
         |> List.map (fun p ->
             (p, [ (0, Route.make p [ asn 64512; asn 1 ]) ]))
       in
       let rib =
         { Mrt.rib_time = 100.; collector_id = Ipv4.of_octets 192 0 2 254;
           view_name = "v"; peers; rib_entries }
       in
       let rib' = Mrt.decode_rib (Mrt.encode_rib rib) in
       Array.length rib'.Mrt.peers = n_peers
       && List.length rib'.Mrt.rib_entries = List.length rib_entries
       && List.for_all2
            (fun (p, _) (p', _) -> Prefix.equal p p')
            rib_entries rib'.Mrt.rib_entries)

(* Property: under any single failed link, propagation still yields
   valley-free loop-free routes. *)
let prop_propagate_failure_valley_free =
  QCheck.Test.make ~name:"valley-free under random link failure" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
       let rng = Rng.of_int seed in
       let g = Topo_gen.generate ~rng Topo_gen.small_params in
       let ix = As_graph.Indexed.of_graph g in
       let ases = Array.of_list (As_graph.ases g) in
       let links = Array.of_list (As_graph.links g) in
       let a, b, _ = Rng.pick rng links in
       let failed = Link_set.of_list ix [ (a, b) ] in
       let origin = Rng.pick rng ases in
       let ann = Announcement.originate origin (pfx "10.0.0.0/24") in
       let outcome = Propagate.compute ix ~failed [ ann ] in
       List.for_all
         (fun x ->
            match Propagate.route_at outcome x with
            | None -> true
            | Some r ->
                let path = r.Route.as_path in
                let distinct = List.sort_uniq Asn.compare path in
                List.length distinct = List.length path
                && Paths.valley_free g path
                (* the failed link never appears on a selected path *)
                && (let rec uses = function
                      | x1 :: (x2 :: _ as rest) ->
                          (Asn.equal x1 a && Asn.equal x2 b)
                          || (Asn.equal x1 b && Asn.equal x2 a)
                          || uses rest
                      | _ -> false
                    in
                    not (uses path)))
         (Array.to_list ases))

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)

let () =
  Alcotest.run "qs_bgp"
    [ ("route",
       [ Alcotest.test_case "basics" `Quick test_route_basics;
         Alcotest.test_case "as-set vs prepending" `Quick test_route_as_set_prepending;
         Alcotest.test_case "empty rejected" `Quick test_route_empty_rejected ]);
      ("link_set",
       [ Alcotest.test_case "normalization" `Quick test_link_set ]
       @ qsuite [ prop_link_set_order ]);
      ("propagate",
       [ Alcotest.test_case "diamond" `Quick test_propagate_diamond;
         Alcotest.test_case "customer over peer" `Quick
           test_propagate_prefer_customer_over_peer;
         Alcotest.test_case "peer route selected" `Quick
           test_propagate_peer_route_selected;
         Alcotest.test_case "valley-free exports" `Quick
           test_propagate_valley_free_exports;
         Alcotest.test_case "failed link" `Quick test_propagate_failed_link;
         Alcotest.test_case "disconnection" `Quick test_propagate_disconnected;
         Alcotest.test_case "prepending" `Quick test_propagate_prepending;
         Alcotest.test_case "export_to scoping" `Quick test_propagate_export_to;
         Alcotest.test_case "max radius" `Quick test_propagate_max_radius;
         Alcotest.test_case "loop detection" `Quick test_propagate_loop_detection;
         Alcotest.test_case "multiple origins" `Quick test_propagate_multi_origin;
         Alcotest.test_case "forwarding path" `Quick test_propagate_forwarding_path;
         Alcotest.test_case "candidates" `Quick test_propagate_candidates;
         Alcotest.test_case "rejects empty" `Quick test_propagate_rejects;
         Alcotest.test_case "rejects over-long path" `Quick
           test_propagate_rejects_overlong_path;
         Alcotest.test_case "workspace clobbers retained outcome" `Quick
           test_workspace_clobbers_retained_outcome;
         Alcotest.test_case "copy owns its arrays" `Quick test_copy_owns_arrays;
         Alcotest.test_case "workspace+copy allocation bound" `Quick
           test_workspace_copy_alloc_bound;
         Alcotest.test_case "workspace compute allocation-free" `Quick
           test_workspace_compute_alloc_free ]
       @ qsuite [ prop_propagate_valley_free; prop_propagate_connected_coverage;
                  prop_propagate_failure_valley_free ]);
      ("delta",
       [ Alcotest.test_case "matches full on diamond sequence" `Quick
           test_delta_matches_full_diamond;
         Alcotest.test_case "stop-early off-tree" `Quick
           test_delta_stop_early_off_tree;
         Alcotest.test_case "restore creates routes" `Quick
           test_delta_restore_creates_route;
         Alcotest.test_case "restore class-up/len-up re-selects dependents"
           `Quick test_delta_restore_class_up_len_up;
         Alcotest.test_case "unsupported shapes fall back" `Quick
           test_delta_unsupported_falls_back;
         Alcotest.test_case "versions distinct across domains" `Quick
           test_delta_versions_distinct_across_domains ]
       @ qsuite [ prop_delta_equals_full; prop_delta_frontier_covers_changes ]);
      ("mrt",
       [ Alcotest.test_case "roundtrip" `Quick test_mrt_roundtrip;
         Alcotest.test_case "long AS path" `Quick test_mrt_long_as_path;
         Alcotest.test_case "malformed input" `Quick test_mrt_malformed;
         Alcotest.test_case "update bridge" `Quick test_mrt_update_bridge ]
       @ qsuite [ prop_mrt_roundtrip ]);
      ("rpki",
       (qsuite [ prop_rov_noop_when_valid ])
       @ [ Alcotest.test_case "validation semantics" `Quick test_rpki_validation;
         Alcotest.test_case "add_roa bounds" `Quick test_add_roa_bounds;
         Alcotest.test_case "ROV blocks origin hijack" `Quick
           test_rov_blocks_origin_hijack;
         Alcotest.test_case "ROV spares forged origin" `Quick
           test_rov_spares_forged_origin ]);
      ("table_dump_v2",
       (qsuite [ prop_rib_roundtrip ])
       @ [ Alcotest.test_case "rib roundtrip" `Quick test_rib_roundtrip;
         Alcotest.test_case "rib of initial tables" `Quick test_rib_of_initial ]);
      ("collector",
       [ Alcotest.test_case "visibility rules" `Quick test_collector_visibility_rules;
         Alcotest.test_case "standard setup" `Quick test_collector_setup ]);
      ("session_reset",
       (qsuite [ prop_reset_filter_no_false_positives ])
       @ [ Alcotest.test_case "passes normal traffic" `Quick
           test_reset_filter_passes_normal;
         Alcotest.test_case "drops table transfers" `Quick
           test_reset_filter_drops_table_transfer;
         Alcotest.test_case "per-session isolation" `Quick
           test_reset_filter_per_session ]);
      ("dynamics",
       [ Alcotest.test_case "time ordered" `Quick test_dynamics_time_ordered;
         Alcotest.test_case "paths start with peer" `Quick
           test_dynamics_paths_start_with_peer;
         Alcotest.test_case "initial tables consistent" `Quick
           test_dynamics_initial_consistent;
         Alcotest.test_case "deterministic" `Quick test_dynamics_deterministic;
         Alcotest.test_case "stats consistent" `Quick test_dynamics_stats_consistent;
         Alcotest.test_case "horizon clamp" `Quick test_dynamics_horizon_clamp;
         Alcotest.test_case "reverts past horizon" `Quick
           test_dynamics_reverts_past_horizon;
         Alcotest.test_case "delta transparent" `Quick
           test_dynamics_delta_transparent ]
       @ qsuite [ prop_dynamics_delta_identical ]) ]
