module Pair = struct
  type t = Asn.t * Asn.t

  let compare (a1, b1) (a2, b2) =
    match Asn.compare a1 a2 with 0 -> Asn.compare b1 b2 | c -> c
end

module S = Set.Make (Pair)

type t = S.t

let norm a b = if Asn.compare a b <= 0 then (a, b) else (b, a)

let empty = S.empty
let is_empty = S.is_empty
let add a b t = S.add (norm a b) t
let remove a b t = S.remove (norm a b) t
let mem a b t = S.mem (norm a b) t
let cardinal = S.cardinal
let elements = S.elements
let of_list l = List.fold_left (fun t (a, b) -> add a b t) empty l
