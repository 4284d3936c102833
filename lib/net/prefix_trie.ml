(* A persistent binary trie over prefix bits. Depth is bounded by 32, so an
   uncompressed trie is simple and fast enough; pre-order traversal (node,
   0-branch, 1-branch) yields keys in increasing Prefix.compare order. *)

type 'a t =
  | Leaf
  | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Leaf

let is_empty = function
  | Leaf -> true
  | Node _ -> false

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

let rec add_at depth p v t =
  let len = Prefix.length p in
  match t with
  | Leaf ->
      if depth = len then Node { value = Some v; zero = Leaf; one = Leaf }
      else if Ipv4.bit (Prefix.network p) depth then
        Node { value = None; zero = Leaf; one = add_at (depth + 1) p v Leaf }
      else Node { value = None; zero = add_at (depth + 1) p v Leaf; one = Leaf }
  | Node { value; zero; one } ->
      if depth = len then Node { value = Some v; zero; one }
      else if Ipv4.bit (Prefix.network p) depth then
        Node { value; zero; one = add_at (depth + 1) p v one }
      else Node { value; zero = add_at (depth + 1) p v zero; one }

let add p v t = add_at 0 p v t

let rec remove_at depth p t =
  match t with
  | Leaf -> Leaf
  | Node { value; zero; one } ->
      if depth = Prefix.length p then node None zero one
      else if Ipv4.bit (Prefix.network p) depth then
        node value zero (remove_at (depth + 1) p one)
      else node value (remove_at (depth + 1) p zero) one

let remove p t = remove_at 0 p t

let rec find_at depth p t =
  match t with
  | Leaf -> None
  | Node { value; zero; one } ->
      if depth = Prefix.length p then value
      else if Ipv4.bit (Prefix.network p) depth then find_at (depth + 1) p one
      else find_at (depth + 1) p zero

let find p t = find_at 0 p t

let matches addr t =
  (* Walk the 32-bit path of [addr], collecting every stored value on the
     way; most specific first means deepest first. *)
  let rec walk depth t acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
        let acc =
          match value with
          | Some v -> (Prefix.make addr depth, v) :: acc
          | None -> acc
        in
        if depth = 32 then acc
        else if Ipv4.bit addr depth then walk (depth + 1) one acc
        else walk (depth + 1) zero acc
  in
  walk 0 t []

let longest_match addr t =
  match matches addr t with
  | [] -> None
  | best :: _ -> Some best

(* Pre-order fold, tracking the path bits to reconstruct each key. *)
let fold f t init =
  let rec go depth bits t acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
        let acc =
          match value with
          | Some v -> f (Prefix.make (Ipv4.of_int_trunc bits) depth) v acc
          | None -> acc
        in
        let acc = go (depth + 1) bits zero acc in
        go (depth + 1) (bits lor (1 lsl (31 - depth))) one acc
  in
  go 0 0 t init

let cardinal t = fold (fun _ _ n -> n + 1) t 0

let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let keys t = List.map fst (to_list t)

let covered p t =
  (* Descend to the node for [p], then enumerate its whole subtree. *)
  let rec descend depth t =
    match t with
    | Leaf -> Leaf
    | Node { zero; one; _ } ->
        if depth = Prefix.length p then t
        else if Ipv4.bit (Prefix.network p) depth then descend (depth + 1) one
        else descend (depth + 1) zero
  in
  let subtree = descend 0 t in
  let base = Ipv4.to_int (Prefix.network p) in
  let rec go depth bits t acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
        let acc =
          match value with
          | Some v -> f_acc (Prefix.make (Ipv4.of_int_trunc bits) depth) v acc
          | None -> acc
        in
        let acc = go (depth + 1) bits zero acc in
        go (depth + 1) (bits lor (1 lsl (31 - depth))) one acc
  and f_acc k v acc = (k, v) :: acc in
  List.rev (go (Prefix.length p) base subtree [])
