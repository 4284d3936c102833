let bfs_hops g src =
  let dist = ref (Asn.Map.singleton src 0) in
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let a = Queue.pop q in
    let d = Asn.Map.find a !dist in
    List.iter
      (fun (b, _) ->
         if not (Asn.Map.mem b !dist) then begin
           dist := Asn.Map.add b (d + 1) !dist;
           Queue.add b q
         end)
      (As_graph.neighbors g a)
  done;
  !dist

let connected g =
  match As_graph.ases g with
  | [] -> false
  | src :: _ -> Asn.Map.cardinal (bfs_hops g src) = As_graph.num_ases g

(* Walking from the first AS (traffic receiver side in an AS-PATH) towards
   the origin, classify each step by what the *next* hop is to the current
   one, and check uphill* [peer?] downhill* reading from the origin. It is
   easier to validate in reverse: from origin forward, steps go
   customer->provider (next is my provider = Up) ... so we walk from the
   origin end. *)
let valley_free g path =
  let rec steps = function
    | a :: (b :: _ as rest) -> begin
        match As_graph.relationship g a b with
        | None -> None
        | Some rel ->
            Option.map (fun tl -> rel :: tl) (steps rest)
      end
    | [ _ ] | [] -> Some []
  in
  (* path is listed adversary-style: first element is the AS closest to the
     route learner, last is the origin. Walk from the origin: reverse. *)
  match steps (List.rev path) with
  | None -> false
  | Some rels ->
      (* rels.(i) = what step-target is to step-source, origin side first.
         Valid = Provider* (Peer)? Customer*  (uphill, one peak, downhill). *)
      let rec uphill = function
        | Relationship.Provider :: rest -> uphill rest
        | rest -> peak rest
      and peak = function
        | Relationship.Peer :: rest -> downhill rest
        | rest -> downhill rest
      and downhill = function
        | [] -> true
        | Relationship.Customer :: rest -> downhill rest
        | Relationship.Provider :: _ | Relationship.Peer :: _ -> false
      in
      uphill rels

let customer_cone_size g a =
  let seen = ref (Asn.Set.singleton a) in
  let q = Queue.create () in
  Queue.add a q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    List.iter
      (fun c ->
         if not (Asn.Set.mem c !seen) then begin
           seen := Asn.Set.add c !seen;
           Queue.add c q
         end)
      (As_graph.customers g x)
  done;
  Asn.Set.cardinal !seen
