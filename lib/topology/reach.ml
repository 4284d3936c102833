(* The three-state export automaton of valley-free routing. A walk from
   the source is legal while its relationship word matches up* peer? down*;
   the BFS below explores the product (AS, phase) graph, so each AS is
   settled at most three times and the whole sweep is O(V + E). *)

let s_up = 0 (* uphill phase: only customer->provider steps taken so far *)
let s_peer = 1 (* the single peering step has been crossed *)
let s_down = 2 (* downhill phase: only provider->customer steps remain *)

type t = {
  graph : As_graph.Indexed.t;
  dist : int array; (* 3n scratch: minimal hops to (AS, phase); max_int = unseen *)
  queue : int array; (* FIFO of (AS, phase) encoded as 3*id + phase *)
}

let create graph =
  let n = As_graph.Indexed.n graph in
  { graph; dist = Array.make (3 * n) max_int; queue = Array.make (3 * n) 0 }

type closure = {
  graph : As_graph.Indexed.t;
  src : Asn.t;
  (* Per AS: bit 0 = reachable in some phase, bit 1 = reachable while
     still uphill (the source is in this AS's customer cone). A byte per
     AS keeps a cached closure at ~n bytes, so thousands of them fit. *)
  mask : Bytes.t;
  count : int;
}

let source c = c.src

let compute (t : t) ?export_to ?max_radius src =
  (match max_radius with
   | Some r when r < 0 -> invalid_arg "Reach.compute: negative max_radius"
   | _ -> ());
  let g = t.graph in
  let n = As_graph.Indexed.n g in
  let dist = t.dist and queue = t.queue in
  Array.fill dist 0 (3 * n) max_int;
  let head = ref 0 and tail = ref 0 in
  let push node = queue.(!tail) <- node; incr tail in
  let src_id = As_graph.Indexed.id_of_asn g src in
  dist.(3 * src_id + s_up) <- 0;
  push (3 * src_id + s_up);
  let within_radius d =
    match max_radius with None -> true | Some r -> d <= r
  in
  while !head < !tail do
    let node = queue.(!head) in
    incr head;
    let u = node / 3 and phase = node mod 3 in
    let d = dist.(node) + 1 in
    if within_radius d then
      Array.iter
        (fun (v, rel) ->
           (* [rel] is what the neighbor [v] is to [u]. *)
           let phase' =
             match phase, rel with
             | 0, Relationship.Provider -> s_up
             | 0, Relationship.Peer -> s_peer
             | _, Relationship.Customer -> s_down
             | _, (Relationship.Provider | Relationship.Peer) -> -1
           in
           if phase' >= 0
              && dist.(3 * v + phase') = max_int
              && (match export_to with
                  | Some allowed when u = src_id && phase = s_up && d = 1 ->
                      Asn.Set.mem (As_graph.Indexed.asn_of_id g v) allowed
                  | _ -> true)
           then begin
             dist.(3 * v + phase') <- d;
             push (3 * v + phase')
           end)
        (As_graph.Indexed.neighbors g u)
  done;
  let mask = Bytes.make n '\000' in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let any =
      dist.(3 * i) < max_int
      || dist.(3 * i + 1) < max_int
      || dist.(3 * i + 2) < max_int
    in
    if any then begin
      incr count;
      let bits = if dist.(3 * i + s_up) < max_int then 3 else 1 in
      Bytes.unsafe_set mask i (Char.unsafe_chr bits)
    end
  done;
  { graph = g; src; mask; count = !count }

let bits c a =
  match As_graph.Indexed.id_of_asn c.graph a with
  | id -> Char.code (Bytes.unsafe_get c.mask id)
  | exception Not_found -> 0

let reaches c a = bits c a land 1 <> 0
let uphill_only c a = bits c a land 2 <> 0

(* x on some valley-free src->dst walk: either x is still in the uphill
   prefix (src in x's customer cone: any legal continuation to dst will
   do), or the continuation from x must be pure downhill — equivalently,
   by walk reversal, pure uphill from dst. *)
let on_some_path ~src ~dst x =
  (uphill_only src x && reaches dst x) || (reaches src x && uphill_only dst x)

let reachable_count c = c.count

let fold f c acc =
  let n = Bytes.length c.mask in
  let acc = ref acc in
  for i = 0 to n - 1 do
    if Char.code (Bytes.unsafe_get c.mask i) land 1 <> 0 then
      acc := f (As_graph.Indexed.asn_of_id c.graph i) !acc
  done;
  !acc

let exposure ~src ~dst =
  fold
    (fun a acc -> if on_some_path ~src ~dst a then Asn.Set.add a acc else acc)
    src Asn.Set.empty
