(* One propagation engine, three stages over one flat int array. Stage A
   floods customer routes uphill (customer -> provider edges), stage B
   crosses peering edges once, stage C floods downhill to customers.
   Classes are strictly ordered customer > peer > provider, so a later
   stage never overwrites an earlier one.

   Within a stage, ASes are expanded in nondecreasing path-length order:
   the seeds of the stage (the origins for A; every AS routed by A or B
   for C), counting-sorted by length, are merged with an int FIFO of the
   ASes the stage itself newly routes. Every edge adds one hop, so the
   FIFO is length-sorted by construction, and an AS expanded at length l
   has already heard every offer of length <= l: its route is final when
   it is expanded (Dijkstra with unit weights). Equal-length offers go to
   the lowest next-hop ASN, i.e. the lowest id ([As_graph.Indexed] ids
   ascend with ASNs). The outcome is therefore independent of the order
   ASes are expanded within a length.

   The announcement-shape checks are decided once per compute: with no
   failed link, no [export_to], no [max_radius], no forged suffix and no
   RPKI-invalid origin (the plain shape the dynamics simulator runs
   thousands of times) the edge loops test nothing but the decision order.
   All scratch lives in the {!Workspace}: a compute through a sized
   workspace allocates only the outcome record and the announcement
   metadata. *)

(* ---- The route word ------------------------------------------------- *)

(* Each AS's selected route is one int, laid out so that comparing two
   words as integers is the decision order: from the top, class + 1 (3
   bits: 4 origin, 3 customer, 2 peer, 1 provider), the inverted path
   length (20 bits: shorter is larger), the inverted next-hop id + 1 (20
   bits: a lower id is larger; the origin's "no next hop" is largest),
   and the announcement index the route descends from (19 bits). 0 is
   "no route". An offer beats [v]'s route iff [offer > word.(v)]. The AS
   hops from the originating AS are not stored: every adopt adds one to
   the length, and a prepend moves the length and the claimed path
   together, so they are [len - init_len] of the route's announcement. *)
let src_bits = 19
let next_bits = 20
let len_bits = 20
let next_shift = src_bits
let len_shift = next_shift + next_bits
let cls_shift = len_shift + len_bits
let src_mask = (1 lsl src_bits) - 1
let next_mask = (1 lsl next_bits) - 1
let len_mask = (1 lsl len_bits) - 1

(* Field limits, checked on input so no field ever wraps into the next:
   ids stay below the "no route" next-hop decode, a route's length stays
   below [len_mask] so one more hop still fits, and announcement indices
   fit their field. *)
let max_ases = next_mask - 1
let max_len = len_mask - 1
let max_anns = src_mask + 1

let cls_origin = 3
let cls_customer = 2
let cls_peer = 1
let cls_provider = 0

let pack c len next src =
  ((c + 1) lsl cls_shift)
  lor ((len_mask - len) lsl len_shift)
  lor ((next_mask - (next + 1)) lsl next_shift)
  lor src

let cls_of w = (w lsr cls_shift) - 1
let len_of w = len_mask - ((w lsr len_shift) land len_mask)

(* -1 at an origin; an id at or above [max_ases] for "no route", which
   no equality test against a real id matches. *)
let next_of w = next_mask - ((w lsr next_shift) land next_mask) - 1
let src_of w = w land src_mask

(* The route's class and length: what a neighbour's offer through it
   depends on. Two words with the same quality differ only in next hop
   or announcement. *)
let quality w = w lsr len_shift

(* The lowest word of class [c] or above. *)
let floor_of c = (c + 1) lsl cls_shift

(* The word [v] stores when it adopts route [wu] of its neighbour [u] as
   a [c]-class route one hop longer. The one place a route is extended:
   both engines compare these offers against stored words. *)
let offer c u wu = pack c (len_of wu + 1) u (src_of wu)

let check_graph g =
  let n = As_graph.Indexed.n g in
  if n > max_ases then
    invalid_arg
      (Printf.sprintf "Propagate: %d ASes exceed the route word's %d" n max_ases)

type ann_info = {
  spec : Announcement.t;
  claimed_path : Asn.t list; (* as injected: origin^(1+prepend) @ fake_suffix *)
  init_len : int;
  origin_id : int;
  refusers : int array;
      (* ids of the forged-suffix ASes: BGP loop detection makes them
         refuse the route (the origin itself always keeps its own) *)
  rpki_invalid : bool;       (* claimed origin fails route-origin validation *)
}

type t = {
  graph : As_graph.Indexed.t;
  pfx : Prefix.t;
  anns : ann_info array;
  word : int array;  (* per AS, the selected route's word; 0 = none *)
  failed : Link_set.t;
  rov_deployers : Asn.Set.t;  (* ASes that drop RPKI-invalid routes *)
}

let prefix t = t.pfx

let rec last_exn = function
  | [ x ] -> x
  | _ :: rest -> last_exn rest
  | [] -> invalid_arg "Propagate: empty claimed path"

let no_ids : int array = [||]

(* A route descending from this announcement grows by at most n - 1 hops
   past its claimed path. *)
let ann_info graph rpki_table (spec : Announcement.t) =
  let claimed_path = Announcement.announced_path spec in
  let init_len = List.length claimed_path in
  if init_len + As_graph.Indexed.n graph - 1 > max_len then
    invalid_arg
      (Printf.sprintf
         "Propagate: a %d-hop claimed path could outgrow the route word's \
          %d-hop length"
         init_len max_len);
  let origin_id =
    try As_graph.Indexed.id_of_asn graph spec.Announcement.origin
    with Not_found ->
      invalid_arg
        (Printf.sprintf "Propagate.compute: origin %s not in topology"
           (Asn.to_string spec.Announcement.origin))
  in
  let refusers =
    match spec.Announcement.fake_suffix with
    | [] -> no_ids
    | suffix ->
        Array.of_list
          (List.filter_map
             (fun a ->
                match As_graph.Indexed.id_of_asn graph a with
                | i -> Some i
                | exception Not_found -> None)
             suffix)
  in
  let rpki_invalid =
    match rpki_table with
    | None -> false
    | Some table ->
        Rpki.validate table spec.Announcement.prefix (last_exn claimed_path)
        = Rpki.Invalid
  in
  { spec; claimed_path; init_len; origin_id; refusers; rpki_invalid }

let rec check_prefix pfx = function
  | [] -> ()
  | (a : Announcement.t) :: rest ->
      if not (Prefix.equal a.Announcement.prefix pfx) then
        invalid_arg "Propagate.compute: announcements for different prefixes";
      check_prefix pfx rest

let ann_infos graph rpki_table anns =
  match anns with
  | [] -> invalid_arg "Propagate.compute: no announcements"
  | [ a ] -> [| ann_info graph rpki_table a |]
  | a :: rest ->
      check_prefix a.Announcement.prefix rest;
      if List.length anns > max_anns then
        invalid_arg
          (Printf.sprintf "Propagate: %d announcements exceed the route word's %d"
             (List.length anns) max_anns);
      Array.of_list (List.map (ann_info graph rpki_table) anns)

module Workspace = struct
  type t = {
    mutable word : int array;    (* outcome array of [compute ~workspace] *)
    mutable queue : int array;   (* FIFO of ASes a stage newly routes *)
    mutable order : int array;   (* stage seeds, sorted by length *)
    mutable count : int array;   (* counting-sort buckets, one per length *)
  }

  let create () = { word = [||]; queue = [||]; order = [||]; count = [||] }

  (* Scratch for an [n]-AS graph; grows, never shrinks. *)
  let ready_scratch w n =
    if Array.length w.queue < n then begin
      w.queue <- Array.make n 0;
      w.order <- Array.make n 0
    end

  let ready_output w n = if Array.length w.word < n then w.word <- Array.make n 0
end

(* The announcement-shape checks, on an outcome under construction as on
   a finished one. [reexports t u]: does [u]'s route travel one more hop
   (its announcement's radius)? *)
let reexports t u =
  let w = t.word.(u) in
  let info = t.anns.(src_of w) in
  match info.spec.Announcement.max_radius with
  | Some r -> len_of w - info.init_len < r
  | None -> true

(* Every check on [u]'s offer to [v] except the decision order and the
   radius: the link, the origin's first-hop audience, then the
   receiver's loop detection against a forged suffix and its ROV. *)
let rec refuses info v k =
  k < Array.length info.refusers && (info.refusers.(k) = v || refuses info v (k + 1))

let edge_ok t u v =
  let info = t.anns.(src_of t.word.(u)) in
  let asn_v = As_graph.Indexed.asn_of_id t.graph v in
  (not (Link_set.mem_ids t.failed u v))
  && (next_of t.word.(u) <> -1
      ||
      match info.spec.Announcement.export_to with
      | None -> true
      | Some set -> Asn.Set.mem asn_v set)
  && (not (refuses info v 0))
  && ((not info.rpki_invalid) || not (Asn.Set.mem asn_v t.rov_deployers))

(* Which shape checks a compute needs at all, decided once. [plain]: no
   failed link, [export_to], refuser or invalid origin, so [edge_ok] is
   always true. *)
type shape = { radius : bool; plain : bool }

(* Stages A ([uphill]: customer routes to providers) and C (provider
   routes to customers). ASes are expanded in nondecreasing length: the
   [nseed] length-sorted seeds in [w.order], merged with the FIFO of the
   ASes this flood newly routes. An AS with no neighbour in the flood's
   direction (a stub, downhill) is never queued: it would expand
   nothing. The edge loops here and in [peer_sweep] call [edge_ok] only
   for an offer that would be taken, and only when the compute has some
   shape check at all. *)
let flood t (w : Workspace.t) shape ~uphill nseed =
  let word = t.word in
  let queue = w.queue and order = w.order in
  let rows = As_graph.Indexed.rows t.graph
  and row_start = As_graph.Indexed.row_start t.graph
  and peers_from = As_graph.Indexed.peers_from t.graph
  and customers_from = As_graph.Indexed.customers_from t.graph in
  let c = if uphill then cls_customer else cls_provider in
  let floor = floor_of c in
  let head = ref 0 and tail = ref 0 and si = ref 0 in
  while !si < nseed || !head < !tail do
    let u =
      if !head < !tail
         && (!si >= nseed
             || len_of word.(queue.(!head)) <= len_of word.(order.(!si)))
      then begin
        incr head;
        queue.(!head - 1)
      end
      else begin
        incr si;
        order.(!si - 1)
      end
    in
    if (not shape.radius) || reexports t u then begin
      let o = offer c u word.(u) in
      let first = if uphill then row_start.(u) else customers_from.(u)
      and last = if uphill then peers_from.(u) else row_start.(u + 1) in
      for k = first to last - 1 do
        let v = rows.(k) in
        let wv = word.(v) in
        if o > wv && (shape.plain || edge_ok t u v) then begin
          if wv < floor
             && (if uphill then row_start.(v) < peers_from.(v)
                 else customers_from.(v) < row_start.(v + 1))
          then begin
            queue.(!tail) <- v;
            incr tail
          end;
          word.(v) <- o
        end
      done
    end
  done

(* Stage B: one hop across peering links, from customer/origin routes.
   Peer routes are never re-exported to peers, so one sweep suffices. *)
let peer_sweep t shape =
  let word = t.word in
  let rows = As_graph.Indexed.rows t.graph
  and peers_from = As_graph.Indexed.peers_from t.graph
  and customers_from = As_graph.Indexed.customers_from t.graph in
  let floor = floor_of cls_customer in
  for u = 0 to As_graph.Indexed.n t.graph - 1 do
    if word.(u) >= floor && ((not shape.radius) || reexports t u) then begin
      let o = offer cls_peer u word.(u) in
      for k = peers_from.(u) to customers_from.(u) - 1 do
        let v = rows.(k) in
        if o > word.(v) && (shape.plain || edge_ok t u v) then word.(v) <- o
      done
    end
  done

(* The seeds of a flood, counting-sorted by length into [w.order]
   (gathered in [w.queue] first): the origins for the uphill flood,
   every routed AS for the downhill one — each only if it has a
   neighbour in the flood's direction. Returns how many there are. *)
let sort_seeds t (w : Workspace.t) ~uphill =
  let word = t.word and queue = w.queue in
  let row_start = As_graph.Indexed.row_start t.graph
  and peers_from = As_graph.Indexed.peers_from t.graph
  and customers_from = As_graph.Indexed.customers_from t.graph in
  let origin = floor_of cls_origin in
  let m = ref 0 and maxlen = ref 0 in
  for u = 0 to As_graph.Indexed.n t.graph - 1 do
    if (if uphill then word.(u) >= origin && row_start.(u) < peers_from.(u)
        else word.(u) <> 0 && customers_from.(u) < row_start.(u + 1))
    then begin
      queue.(!m) <- u;
      incr m;
      let l = len_of word.(u) in
      if l > !maxlen then maxlen := l
    end
  done;
  if Array.length w.count <= !maxlen then w.count <- Array.make (!maxlen + 1) 0;
  let count = w.count and order = w.order in
  Array.fill count 0 (!maxlen + 1) 0;
  for i = 0 to !m - 1 do
    let l = len_of word.(queue.(i)) in
    count.(l) <- count.(l) + 1
  done;
  let at = ref 0 in
  for l = 0 to !maxlen do
    let c = count.(l) in
    count.(l) <- !at;
    at := !at + c
  done;
  for i = 0 to !m - 1 do
    let u = queue.(i) in
    let l = len_of word.(u) in
    order.(count.(l)) <- u;
    count.(l) <- count.(l) + 1
  done;
  !m

(* An AS originating several announcements keeps the shortest claimed
   path, the first on a tie: a later one must beat it on quality. *)
let seed_origins t =
  Array.iteri
    (fun k info ->
       let o = info.origin_id in
       let w = pack cls_origin info.init_len (-1) k in
       if quality w > quality t.word.(o) then t.word.(o) <- w)
    t.anns

(* Run the three stages into [t.word] (length >= n), with scratch from
   [w]. Every cell below [n] is overwritten. *)
let engine t w =
  let n = As_graph.Indexed.n t.graph in
  Workspace.ready_scratch w n;
  (* A typed loop: [Array.fill] into a major-heap array checks every old
     value for the write barrier. *)
  for i = 0 to n - 1 do
    t.word.(i) <- 0
  done;
  let has f = Array.exists f t.anns in
  let shape =
    { radius = has (fun i -> i.spec.Announcement.max_radius <> None);
      plain =
        Link_set.is_empty t.failed
        && not
             (has (fun i ->
                  i.spec.Announcement.export_to <> None
                  || Array.length i.refusers > 0 || i.rpki_invalid)) }
  in
  seed_origins t;
  flood t w shape ~uphill:true (sort_seeds t w ~uphill:true);
  peer_sweep t shape;
  flood t w shape ~uphill:false (sort_seeds t w ~uphill:false)

let compute graph ?workspace ?(failed = Link_set.empty) ?rov anns =
  check_graph graph;
  Link_set.check graph failed;
  let rpki_table, rov_deployers =
    match rov with
    | Some (table, deployers) -> (Some table, deployers)
    | None -> (None, Asn.Set.empty)
  in
  let anns = ann_infos graph rpki_table anns in
  let w = match workspace with Some w -> w | None -> Workspace.create () in
  Workspace.ready_output w (As_graph.Indexed.n graph);
  let t =
    { graph; pfx = anns.(0).spec.Announcement.prefix; anns; word = w.word;
      failed; rov_deployers }
  in
  engine t w;
  t

let id_opt t a =
  match As_graph.Indexed.id_of_asn t.graph a with
  | i -> Some i
  | exception Not_found -> None

let has_route t a =
  match id_opt t a with
  | Some i -> t.word.(i) <> 0
  | None -> false

let rec exported_path t i =
  let w = t.word.(i) in
  if next_of w = -1 then t.anns.(src_of w).claimed_path
  else As_graph.Indexed.asn_of_id t.graph i :: exported_path t (next_of w)

let route_at_id t i =
  let w = t.word.(i) in
  if w <> 0 then
    let communities = t.anns.(src_of w).spec.Announcement.communities in
    Some (Route.make ~communities t.pfx (exported_path t i))
  else None

let route_at t a =
  match id_opt t a with
  | Some i -> route_at_id t i
  | None -> None

let next_hop t a =
  match id_opt t a with
  | Some i when t.word.(i) <> 0 && next_of t.word.(i) <> -1 ->
      Some (As_graph.Indexed.asn_of_id t.graph (next_of t.word.(i)))
  | Some _ | None -> None

(* Allocation-free [route_at t a = Some r]: walks the next-hop chain
   comparing hops against [r]'s stored path instead of materializing a
   fresh list and Route. The dynamics simulator calls this once per
   (prefix, session) per event — almost always on an unchanged route. *)
let route_matches_id t i (r : Route.t) =
  let w = t.word.(i) in
  w <> 0
  && Prefix.equal t.pfx r.Route.prefix
  && t.anns.(src_of w).spec.Announcement.communities = r.Route.communities
  &&
  let rec walk i (path : Asn.t list) =
    let w = t.word.(i) in
    if next_of w = -1 then
      List.equal Asn.equal t.anns.(src_of w).claimed_path path
    else
      match path with
      | [] -> false
      | hop :: rest ->
          Asn.equal (As_graph.Indexed.asn_of_id t.graph i) hop
          && walk (next_of w) rest
  in
  walk i r.Route.as_path

let forwarding_path t a =
  match id_opt t a with
  | Some i when t.word.(i) <> 0 ->
      let rec walk i acc =
        let acc = As_graph.Indexed.asn_of_id t.graph i :: acc in
        let next = next_of t.word.(i) in
        if next = -1 then List.rev acc else walk next acc
      in
      Some (walk i [])
  | Some _ | None -> None

let class_code_at_id t i = cls_of t.word.(i)

let route_class_at_id t i =
  let c = cls_of t.word.(i) in
  if c >= 0 then
    Some
      (if c = cls_origin then `Origin
       else if c = cls_customer then `Customer
       else if c = cls_peer then `Peer
       else `Provider)
  else None

let route_class_at t a =
  match id_opt t a with
  | Some i -> route_class_at_id t i
  | None -> None

let winning_announcement t a =
  match id_opt t a with
  | Some i when t.word.(i) <> 0 -> Some (src_of t.word.(i))
  | Some _ | None -> None

(* [t.word] may be a workspace array longer than the graph (the workspace
   grows to the largest graph it has served), so whole-table scans must
   bound themselves by the graph size, not the array length. *)
let captured t k =
  let out = ref [] in
  for i = As_graph.Indexed.n t.graph - 1 downto 0 do
    if t.word.(i) <> 0 && src_of t.word.(i) = k then
      out := As_graph.Indexed.asn_of_id t.graph i :: !out
  done;
  !out

let routed_count t =
  let n = As_graph.Indexed.n t.graph in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    if t.word.(i) <> 0 then incr acc
  done;
  !acc

let copy t = { t with word = Array.sub t.word 0 (As_graph.Indexed.n t.graph) }

let candidates_at t a =
  match id_opt t a with
  | None -> []
  | Some v ->
      let asn_v = a in
      let cands = ref [] in
      Array.iter
        (fun (u, rel) ->
           (* [rel] is what u is to v; u exports its best route to v iff the
              route is customer/origin class, or v is u's customer — i.e. u
              is v's Provider. *)
           let cu = cls_of t.word.(u) in
           if cu >= 0 && reexports t u && edge_ok t u v
              && (cu >= cls_customer || Relationship.equal rel Relationship.Provider)
           then begin
             let path = exported_path t u in
             if not (List.exists (Asn.equal asn_v) path) then
               let cand_cls =
                 match rel with
                 | Relationship.Customer -> cls_customer
                 | Relationship.Peer -> cls_peer
                 | Relationship.Provider -> cls_provider
               in
               cands := (cand_cls, List.length path, path) :: !cands
           end)
        (As_graph.Indexed.neighbors t.graph v);
      !cands
      |> List.sort (fun (c1, l1, p1) (c2, l2, p2) ->
          if c1 <> c2 then Int.compare c2 c1
          else if l1 <> l2 then Int.compare l1 l2
          else List.compare Asn.compare p1 p2)
      |> List.map (fun (_, _, path) -> Route.make t.pfx path)

(* ---- Incremental delta engine --------------------------------------- *)

(* Correctness rests on the Gao-Rexford safety property: under
   customer>peer>provider preference and valley-free export the routing
   system has a {e unique} stable assignment (the customer layer is the
   shortest-path fixed point over the acyclic customer->provider digraph,
   the peer layer is a function of it, the provider layer a Dijkstra fixed
   point given both). Any repair that ends in a feasible, stable
   assignment therefore lands on the very same words the full compute
   produces.

   A {b failed} link only removes candidates, so nodes whose selected
   next-chain does not cross it keep their exact routes (the preference
   order is total, so every alternative they saw before strictly lost and
   still does). Only the endpoint routing across it must re-select, and
   its change (if any) ripples outward through local re-selection. A
   {b restored} link only adds candidates: the current assignment is still
   feasible, and the only new offers cross the restored edge, so an O(1)
   check per endpoint decides whether anything can change (stop-early). A
   {b prepend} change on the single announcement shifts every candidate's
   length uniformly, so decisions are invariant and the repair is a plain
   length shift. *)
module Delta = struct
  type scratch = {
    ws : Workspace.t;               (* for cold starts / full rebuilds *)
    mutable mark : int array;       (* epoch-stamped clean/dirty memo *)
    mutable epoch : int;
    mutable on_list : bool array;
    mutable queue : int array;      (* ring buffer, capacity n + 1 *)
  }

  let create_scratch () =
    { ws = Workspace.create ();
      mark = [||]; epoch = 1; on_list = [||]; queue = [||] }

  let scratch_ready s n =
    if Array.length s.mark < n then begin
      s.mark <- Array.make n 0;
      s.epoch <- 1;
      s.on_list <- Array.make n false;
      s.queue <- Array.make (n + 1) 0
    end

  type state = {
    graph : As_graph.Indexed.t;
    word : int array;               (* owned, length n *)
    mutable ann : Announcement.t option;  (* last applied; None = cold *)
    mutable infos : ann_info array;
    mutable failed : Link_set.t;
    mutable origin_id : int;
    mutable version : int;
        (* bumped whenever an update changes anything a reader could
           observe (any word, every length, route communities); two
           reads of the same prefix at the same version are guaranteed
           identical, which lets callers skip re-deriving per-session
           views entirely *)
  }

  type kind =
    | Full_rebuild
    | Steps of { links_applied : int; frontier : int; stop_early : int }

  (* Global across states, so no two states ever share a version. *)
  let version_counter = ref 0

  let fresh_version () =
    incr version_counter;
    !version_counter

  let create graph =
    check_graph graph;
    { graph; word = Array.make (As_graph.Indexed.n graph) 0;
      ann = None; infos = [||]; failed = Link_set.empty;
      origin_id = -1; version = fresh_version () }

  let version st = st.version

  (* The delta repairs are only sound for the plain single-announcement
     shape ([outcome_for] in the dynamics simulator emits exactly this):
     no forged suffix (claimed set is the origin alone, so loop detection
     is [v <> origin]), no export scoping, no radius cap, no ROV. *)
  let supported_ann (a : Announcement.t) =
    a.Announcement.fake_suffix = []
    && a.Announcement.export_to = None
    && a.Announcement.max_radius = None

  let make_t st =
    { graph = st.graph;
      pfx = st.infos.(0).spec.Announcement.prefix;
      anns = st.infos;
      word = st.word;
      failed = st.failed; rov_deployers = Asn.Set.empty }

  (* A full compute straight into the state's own words, with the
     scratch workspace's queues (no ROV: the dynamics never validates). *)
  let rebuild st scratch ~failed anns =
    st.infos <- ann_infos st.graph None anns;
    st.failed <- failed;
    let t = make_t st in
    engine t scratch.ws;
    st.version <- fresh_version ();
    (match anns with
     | [ a ] when supported_ann a ->
         st.ann <- Some a;
         st.origin_id <-
           As_graph.Indexed.id_of_asn st.graph a.Announcement.origin
     | _ ->
         (* Unsupported shape: never diff against it. *)
         st.ann <- None);
    t

  (* A repair that refuses to converge within its pop budget bails out to
     a full rebuild (the budget is a safety valve; Gao-Rexford-compliant
     topologies converge long before it). A transient route too long for
     its word's length field bails the same way. *)
  exception Bail

  (* Store [w] at [x]. Stored lengths stay below the field's maximum, so
     every offer through a stored word fits. *)
  let store st x w =
    if w <> 0 && (w lsr len_shift) land len_mask = 0 then raise Bail;
    st.word.(x) <- w

  (* Does the selection chain starting at [w] pass through [x]? Stored
     chains are acyclic at every moment (each accept below re-checks
     this), so the walk ends at the origin or at an AS that just lost its
     route; the step bound is a safety net. A candidate whose chain
     crosses the evaluating node can never beat that node's stored route
     under the Gao-Rexford order once chains are accept-consistent, so
     rejecting them loses nothing at the fixed point - it only steers
     transients away from next-pointer cycles. *)
  let chain_crosses st w x =
    let n = Array.length st.word in
    let rec go v steps =
      v = x
      || (steps <= n && st.word.(v) <> 0
          && (let next = next_of st.word.(v) in
              next >= 0 && go next (steps + 1)))
    in
    go w 0

  (* The class a receiver gives route [ww] offered by its neighbour,
     where [rel] is what that neighbour is to the receiver; -1 if
     valley-free export withholds it (only customer and origin routes go
     up or across). *)
  let offer_cls ww (rel : Relationship.t) =
    match rel with
    | Relationship.Provider -> cls_provider
    | Relationship.Customer | Relationship.Peer
      when ww < floor_of cls_customer -> -1
    | Relationship.Customer -> cls_customer
    | Relationship.Peer -> cls_peer

  (* [x]'s stored word just changed quality (class or length, incl.
     becoming unrouted): enqueue only the neighbors the change can
     actually move. Dependents (routing via [x]) must re-select
     unconditionally. Any other neighbor [v] chose its stored route over
     [x]'s old offer, so a {e worsened} or withdrawn offer cannot move
     it; an {e improved} offer matters only if it now beats [v]'s stored
     word outright. This collapses the wave's fanout from degree to the
     handful of nodes that actually re-route. *)
  let push_affected st push x =
    let g = st.graph in
    let wx = st.word.(x) in
    let neighbors = As_graph.Indexed.neighbors g x in
    for k = 0 to Array.length neighbors - 1 do
      let (v, rel) : int * Relationship.t = neighbors.(k) in
      (* [rel] is what v is to x, so x is [Relationship.invert rel] to v. *)
      if next_of st.word.(v) = x then push v
      else if wx <> 0 then begin
        let c = offer_cls wx (Relationship.invert rel) in
        if c >= 0
           && (not (Link_set.mem_ids st.failed x v))
           && offer c x wx > st.word.(v)
        then push v
      end
    done

  (* Local re-selection ("ripple") repair: pop a node, recompute its
     best response from its neighbors' current stored words under
     valley-free export, and re-enqueue its neighbors only when its
     route *quality* (class, length) changed. A node that swaps to an
     equal-quality route via a different next hop affects nobody: its
     neighbors' candidates through it keep the same class, length, and
     offering ASN, so the repair frontier collapses to the nodes whose
     quality actually moves - the common multihomed re-homing flap
     repairs in O(degree) instead of invalidating the whole customer
     cone.

     An empty queue means every node was re-evaluated after its inputs
     last changed, i.e. the tables are a best-response equilibrium,
     which is unique under Gao-Rexford safety and therefore
     byte-identical to a full compute. *)
  let wave st s ~tail ~newly =
    let g = st.graph in
    let n = As_graph.Indexed.n g in
    let cap = n + 1 in
    let head = ref 0 and tail = ref tail in
    let budget = ref ((64 * n) + 256) in
    let push v =
      if v <> st.origin_id && not s.on_list.(v) then begin
        s.on_list.(v) <- true;
        s.queue.(!tail) <- v;
        let t = !tail + 1 in
        tail := if t = cap then 0 else t
      end
    in
    let stamp v =
      if s.mark.(v) <> s.epoch then begin
        s.mark.(v) <- s.epoch;
        incr newly
      end
    in
    while !head <> !tail do
      let x = s.queue.(!head) in
      let h = !head + 1 in
      head := if h = cap then 0 else h;
      s.on_list.(x) <- false;
      decr budget;
      if !budget < 0 then raise Bail;
      let neighbors = As_graph.Indexed.neighbors g x in
      let wx = st.word.(x) in
      let best = ref 0 in
      (* Did a candidate lose only to the chain-crossing rejection? Then
         x's true best response is not yet determined — the crossing can
         untangle later without any neighbor's word (and hence any push)
         changing, so x must re-evaluate once the wave has moved on.
         Without this, a transiently-crossing winner leaves x stuck on a
         worse route (or unrouted) at quiescence. *)
      let deferred = ref false in
      (* A plain counted loop with local refs: the candidate scan runs
         per pop and must not allocate (an [Array.iter] closure over the
         running-best refs boxes all of them, every pop). *)
      for k = 0 to Array.length neighbors - 1 do
        let (w, rel) : int * Relationship.t = neighbors.(k) in
        let ww = st.word.(w) in
        if ww <> 0 then begin
          let c = offer_cls ww rel in
          if c >= 0 && not (Link_set.mem_ids st.failed x w) then begin
            let o = offer c w ww in
            if o > !best then
              (* Incumbent fast path: if x already routes via w, the
                 stored chain x -> w -> ... is acyclic (the invariant
                 every adopt preserves), so chain(w) cannot contain x —
                 no walk needed. Re-confirmation pops, the wave's common
                 case, take this branch. *)
              if next_of wx = w || not (chain_crosses st w x) then best := o
              else deferred := true
          end
        end
      done;
      let changed_here = !best <> wx in
      if changed_here then begin
        store st x !best;
        stamp x;
        if quality !best <> quality wx then push_affected st push x
      end;
      (* Re-evaluate x later only while the wave is still moving: if the
         queue is empty and x's own word just stabilized, every chain is
         consistent, and a crossing candidate provably cannot beat a
         stored route at a consistent state — the rejection was
         harmless. Re-pushing unconditionally would spin on its own
         unresolved crossing until the budget bails. *)
      if !deferred && (!head <> !tail || changed_here) then push x
    done

  (* Fail link (a, b): stop immediately unless a selected route actually
     crosses it; otherwise the crossing endpoint re-selects and the
     change (if any) ripples out. Returns the number of nodes whose
     word changed. *)
  let fail_repair st s ia ib =
    st.failed <- Link_set.add_ids st.graph ia ib st.failed;
    let root =
      if next_of st.word.(ia) = ib then ia
      else if next_of st.word.(ib) = ia then ib
      else -1
    in
    if root = -1 then 0
    else begin
      s.epoch <- s.epoch + 1;
      s.on_list.(root) <- true;
      s.queue.(0) <- root;
      let newly = ref 0 in
      wave st s ~tail:1 ~newly;
      !newly
    end

  (* Restore link (a, b): the only new candidates are the two offers
     across the restored edge, and each endpoint's stored word is
     already the maximum over every other candidate - so an O(1) check
     per endpoint decides whether anything can move, and the wave only
     runs when an endpoint actually improves. *)
  let restore_repair st s ia ib =
    st.failed <- Link_set.remove_ids st.graph ia ib st.failed;
    s.epoch <- s.epoch + 1;
    let tail = ref 0 in
    let newly = ref 0 in
    let push v =
      if v <> st.origin_id && not s.on_list.(v) then begin
        s.on_list.(v) <- true;
        s.queue.(!tail) <- v;
        incr tail
      end
    in
    (* Offer w's route to x across the restored edge; adopt it only if
       it beats x's stored maximum (then x's neighbors re-evaluate). *)
    let try_improve x w =
      let ww = st.word.(w) and wx = st.word.(x) in
      if x <> st.origin_id && ww <> 0 then
        (* What w is to x, read off x's adjacency row. *)
        match
          Array.find_opt
            (fun ((u, _) : int * Relationship.t) -> u = w)
            (As_graph.Indexed.neighbors st.graph x)
        with
        | None -> ()
        | Some (_, rel) ->
            let c = offer_cls ww rel in
            if c >= 0 then begin
              let o = offer c w ww in
              if o > wx then
                if chain_crosses st w x then
                  (* The winning offer is blocked only by a (possibly
                     transient) crossing: let the wave re-evaluate x
                     with a full scan rather than silently dropping it. *)
                  push x
                else begin
                  store st x o;
                  if s.mark.(x) <> s.epoch then begin
                    s.mark.(x) <- s.epoch;
                    incr newly
                  end;
                  if quality o <> quality wx then push_affected st push x
                end
            end
    in
    try_improve ia ib;
    try_improve ib ia;
    if !tail > 0 then wave st s ~tail:!tail ~newly;
    !newly

  (* Every routed word's length moves by [delta]: the inverted length
     field moves the other way. *)
  let shift_len st delta =
    if delta <> 0 then begin
      let n = As_graph.Indexed.n st.graph in
      for v = 0 to n - 1 do
        if st.word.(v) <> 0 then
          st.word.(v) <- st.word.(v) - (delta lsl len_shift)
      done
    end

  let update st scratch ?(failed = Link_set.empty) anns =
    Link_set.check st.graph failed;
    scratch_ready scratch (As_graph.Indexed.n st.graph);
    match (anns, st.ann) with
    | [ a ], Some prev
      when supported_ann a
           && Asn.equal a.Announcement.origin prev.Announcement.origin ->
        (* Same origin is enough: the routing arrays never depend on the
           prefix, so one state serves every prefix of an origin — a
           prefix swap is a metadata update, a prepend change a length
           shift. This is what lets [Dynamics] key states per origin and
           amortize one repair across all of an origin's prefixes. *)
        (let links_applied = ref 0
        and frontier = ref 0
        and stop_early = ref 0 in
        if (not (Prefix.equal a.Announcement.prefix prev.Announcement.prefix))
           || a.Announcement.prepend <> prev.Announcement.prepend
           || a.Announcement.communities <> prev.Announcement.communities
        then begin
          (* The claimed path depends only on (origin, prepend): a pure
             prefix or communities swap reuses the previous path and
             set instead of rebuilding them. *)
          let info =
            if a.Announcement.prepend = prev.Announcement.prepend then
              { st.infos.(0) with spec = a }
            else ann_info st.graph None a
          in
          let shift = info.init_len - st.infos.(0).init_len in
          shift_len st shift;
          (* A pure prefix swap leaves everything a reader derives for
             that prefix untouched; shifts and community changes do not. *)
          if shift <> 0
             || a.Announcement.communities <> prev.Announcement.communities
          then st.version <- fresh_version ();
          st.infos <- [| info |];
          st.ann <- Some a
        end;
        let apply repair ia ib =
          incr links_applied;
          let changed = repair st scratch ia ib in
          if changed = 0 then incr stop_early;
          frontier := !frontier + changed
        in
        match
          (* Physical equality is the hot path: consecutive updates of
             one origin's prefixes within one event pass the very set
             this state already applied. Restores, then fails, each
             ascending; a repair moves its own link in [st.failed]. *)
          if st.failed != failed then begin
            let old = st.failed in
            Link_set.iter_diff (apply restore_repair) old failed;
            Link_set.iter_diff (apply fail_repair) failed old
          end
        with
        | () ->
            if !frontier > 0 then st.version <- fresh_version ();
            st.failed <- failed;
            ( make_t st,
              Steps
                { links_applied = !links_applied;
                  frontier = !frontier;
                  stop_early = !stop_early } )
        | exception Bail ->
            (* Repair blew its budget: the arrays are mid-flight garbage,
               but a rebuild overwrites every field, so correctness is
               preserved at full-compute cost. Abandoned queue entries
               must not poison the next repair's pushes. *)
            Array.fill scratch.on_list 0 (Array.length scratch.on_list) false;
            (rebuild st scratch ~failed anns, Full_rebuild))
    | _ -> (rebuild st scratch ~failed anns, Full_rebuild)
end
