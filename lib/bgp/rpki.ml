type roa = {
  roa_prefix : Prefix.t;
  max_length : int;
  authorized : Asn.t;
}

type validity = Valid | Invalid | Not_found

type t = { roas : roa list Prefix_trie.t; count : int }

let empty = { roas = Prefix_trie.empty; count = 0 }

let add_roa t roa =
  if roa.max_length < Prefix.length roa.roa_prefix || roa.max_length > 32 then
    invalid_arg "Rpki.add_roa: bad max_length";
  let existing =
    Option.value ~default:[] (Prefix_trie.find roa.roa_prefix t.roas)
  in
  { roas = Prefix_trie.add roa.roa_prefix (roa :: existing) t.roas;
    count = t.count + 1 }

let of_addressing addressing =
  List.fold_left
    (fun t (p, origin) ->
       add_roa t
         { roa_prefix = p; max_length = Prefix.length p; authorized = origin })
    empty (Addressing.announced addressing)

let validate t prefix claimed_origin =
  (* Covering ROAs: every stored ROA whose prefix subsumes the route's. *)
  let covering =
    Prefix_trie.matches (Prefix.network prefix) t.roas
    |> List.concat_map snd
    |> List.filter (fun roa -> Prefix.subsumes roa.roa_prefix prefix)
  in
  match covering with
  | [] -> Not_found
  | roas ->
      if
        List.exists
          (fun roa ->
             Asn.equal roa.authorized claimed_origin
             && Prefix.length prefix <= roa.max_length)
          roas
      then Valid
      else Invalid

let size t = t.count
