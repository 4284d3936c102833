(* A link is one int over the ids of an [n]-AS graph, [lo * n + hi] with
   [lo <= hi], so integer order is (smaller id, larger id) order. Only
   [empty] has [n = 0]. *)
module S = Set.Make (Int)

type t = { n : int; keys : S.t }

let empty = { n = 0; keys = S.empty }
let is_empty t = S.is_empty t.keys
let cardinal t = S.cardinal t.keys

let check ix t =
  if t.n <> As_graph.Indexed.n ix && not (is_empty t) then
    invalid_arg "Link_set: a set used with a graph of another size"

let key n i j = if i <= j then (i * n) + j else (j * n) + i
let mem_ids t i j = S.mem (key t.n i j) t.keys

let change op ix i j t =
  check ix t;
  let n = As_graph.Indexed.n ix in
  { n; keys = op (key n i j) t.keys }

let add_ids = change S.add
let remove_ids = change S.remove

let iter_diff f a b =
  S.iter (fun k -> if not (S.mem k b.keys) then f (k / a.n) (k mod a.n)) a.keys

let by_asn op ix a b t =
  let id a =
    try As_graph.Indexed.id_of_asn ix a
    with Not_found ->
      invalid_arg ("Link_set: " ^ Asn.to_string a ^ " is not in the graph")
  in
  op ix (id a) (id b) t

let add = by_asn add_ids
let remove = by_asn remove_ids
let mem = by_asn (fun ix i j t -> check ix t; mem_ids t i j)
let of_list ix l = List.fold_left (fun t (a, b) -> add ix a b t) empty l
