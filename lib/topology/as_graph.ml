type tier = Tier1 | Transit | Stub

type info = { name : string; tier : tier; hosting_weight : float }

let tier_to_string = function
  | Tier1 -> "tier1"
  | Transit -> "transit"
  | Stub -> "stub"

let tier_of_string = function
  | "tier1" -> Tier1
  | "transit" -> Transit
  | "stub" -> Stub
  | s -> invalid_arg (Printf.sprintf "As_graph: unknown tier %S" s)

type t = {
  infos : info Asn.Table.t;
  adj : (Asn.t * Relationship.t) list Asn.Table.t;  (* neighbor, what-neighbor-is-to-me *)
  mutable link_count : int;
}

let create () =
  { infos = Asn.Table.create 1024; adj = Asn.Table.create 1024; link_count = 0 }

let mem_as g a = Asn.Table.mem g.infos a

let add_as g a info =
  if mem_as g a then
    invalid_arg (Printf.sprintf "As_graph.add_as: %s already present" (Asn.to_string a));
  Asn.Table.replace g.infos a info;
  Asn.Table.replace g.adj a []

let info g a =
  match Asn.Table.find_opt g.infos a with
  | Some i -> i
  | None -> raise Not_found

let neighbors g a =
  match Asn.Table.find_opt g.adj a with
  | Some l -> l
  | None -> []

let relationship g a b =
  List.find_map (fun (n, rel) -> if Asn.equal n b then Some rel else None)
    (neighbors g a)

let add_link g a b rel_of_b_for_a =
  if not (mem_as g a) then
    invalid_arg (Printf.sprintf "As_graph.add_link: unknown %s" (Asn.to_string a));
  if not (mem_as g b) then
    invalid_arg (Printf.sprintf "As_graph.add_link: unknown %s" (Asn.to_string b));
  if Asn.equal a b then invalid_arg "As_graph.add_link: self loop";
  if relationship g a b <> None then
    invalid_arg (Printf.sprintf "As_graph.add_link: %s-%s already linked"
                   (Asn.to_string a) (Asn.to_string b));
  Asn.Table.replace g.adj a ((b, rel_of_b_for_a) :: neighbors g a);
  Asn.Table.replace g.adj b ((a, Relationship.invert rel_of_b_for_a) :: neighbors g b);
  g.link_count <- g.link_count + 1

let add_provider_customer g ~provider ~customer =
  add_link g provider customer Relationship.Customer

let add_peering g a b = add_link g a b Relationship.Peer

let filter_neighbors g a rel =
  List.filter_map
    (fun (b, r) -> if Relationship.equal r rel then Some b else None)
    (neighbors g a)

let customers g a = filter_neighbors g a Relationship.Customer
let providers g a = filter_neighbors g a Relationship.Provider
let peers g a = filter_neighbors g a Relationship.Peer

let ases g =
  Asn.Table.fold (fun a _ acc -> a :: acc) g.infos []
  |> List.sort Asn.compare

let num_ases g = Asn.Table.length g.infos
let num_links g = g.link_count
let degree g a = List.length (neighbors g a)

let links g =
  let out = ref [] in
  Asn.Table.iter
    (fun a ns ->
       List.iter
         (fun (b, rel) -> if Asn.compare a b < 0 then out := (a, b, rel) :: !out)
         ns)
    g.adj;
  List.sort
    (fun (a1, b1, _) (a2, b2, _) ->
       match Asn.compare a1 a2 with 0 -> Asn.compare b1 b2 | c -> c)
    !out

let core_links g =
  let core a = match (info g a).tier with Tier1 | Transit -> true | Stub -> false in
  links g
  |> List.filter_map (fun (a, b, _) ->
      if core a && core b then Some (a, b) else None)
  |> Array.of_list

let to_caida_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# quicksand AS topology, CAIDA as-rel serial-1 format\n";
  List.iter
    (fun a ->
       let i = info g a in
       Buffer.add_string buf
         (Printf.sprintf "# as-info %d %s %g %s\n" (Asn.to_int a)
            (tier_to_string i.tier) i.hosting_weight i.name))
    (ases g);
  List.iter
    (fun (a, b, rel) ->
       let line =
         match rel with
         | Relationship.Customer ->
             (* b is a's customer: a is the provider *)
             Printf.sprintf "%d|%d|-1\n" (Asn.to_int a) (Asn.to_int b)
         | Relationship.Provider ->
             Printf.sprintf "%d|%d|-1\n" (Asn.to_int b) (Asn.to_int a)
         | Relationship.Peer ->
             Printf.sprintf "%d|%d|0\n" (Asn.to_int a) (Asn.to_int b)
       in
       Buffer.add_string buf line)
    (links g);
  Buffer.contents buf

let of_caida_string s =
  let g = create () in
  let default_info = { name = ""; tier = Stub; hosting_weight = 0. } in
  let ensure a = if not (mem_as g a) then add_as g a default_info in
  let parse_line line =
    let line = String.trim line in
    if line = "" then ()
    else if String.length line >= 10 && String.sub line 0 10 = "# as-info " then begin
      let rest = String.sub line 10 (String.length line - 10) in
      match String.split_on_char ' ' rest with
      | asn :: tier :: weight :: name_parts -> begin
          match (int_of_string_opt asn, float_of_string_opt weight) with
          | Some asn, Some weight ->
              let a = Asn.of_int asn in
              let i =
                { name = String.concat " " name_parts;
                  tier = tier_of_string tier;
                  hosting_weight = weight }
              in
              if mem_as g a then Asn.Table.replace g.infos a i else add_as g a i
          | _ -> invalid_arg "As_graph.of_caida_string: bad as-info line"
        end
      | _ -> invalid_arg "As_graph.of_caida_string: bad as-info line"
    end
    else if line.[0] = '#' then ()
    else
      match String.split_on_char '|' line with
      | [a; b; rel] -> begin
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b ->
              let a = Asn.of_int a and b = Asn.of_int b in
              ensure a; ensure b;
              begin match rel with
              | "-1" -> add_provider_customer g ~provider:a ~customer:b
              | "0" -> add_peering g a b
              | _ -> invalid_arg "As_graph.of_caida_string: bad relationship code"
              end
          | _ -> invalid_arg "As_graph.of_caida_string: bad ASN"
        end
      | _ -> invalid_arg "As_graph.of_caida_string: bad line"
  in
  List.iter parse_line (String.split_on_char '\n' s);
  g

module Indexed = struct
  type graph = t

  type t = {
    asns : Asn.t array;
    ids : int Asn.Table.t;
    neighbor_arr : (int * Relationship.t) array array;
    tiers : tier array;
    rows : int array;        (* every AS's neighbours, grouped by relationship *)
    row_start : int array;   (* n + 1 entries *)
    peers_from : int array;
    customers_from : int array;
  }

  let of_graph g =
    let asns = Array.of_list (ases g) in
    let n = Array.length asns in
    let ids = Asn.Table.create n in
    Array.iteri (fun i a -> Asn.Table.replace ids a i) asns;
    let neighbor_arr =
      Array.map
        (fun a ->
           neighbors g a
           |> List.map (fun (b, rel) -> (Asn.Table.find ids b, rel))
           |> Array.of_list)
        asns
    in
    let tiers = Array.map (fun a -> (info g a).tier) asns in
    (* Relationship rows in one sweep over the ASes: count the AS's
       providers and peers, then place every neighbour behind its group's
       cursor (each group keeps adjacency order). *)
    let row_start = Array.make (n + 1) 0 in
    let peers_from = Array.make n 0 and customers_from = Array.make n 0 in
    let rows =
      Array.make (Array.fold_left (fun k r -> k + Array.length r) 0 neighbor_arr) 0
    in
    for i = 0 to n - 1 do
      let row = neighbor_arr.(i) in
      let providers = ref 0 and peers = ref 0 in
      for k = 0 to Array.length row - 1 do
        match snd row.(k) with
        | Relationship.Provider -> incr providers
        | Relationship.Peer -> incr peers
        | Relationship.Customer -> ()
      done;
      peers_from.(i) <- row_start.(i) + !providers;
      customers_from.(i) <- peers_from.(i) + !peers;
      row_start.(i + 1) <- row_start.(i) + Array.length row;
      let p = ref row_start.(i) and q = ref peers_from.(i)
      and c = ref customers_from.(i) in
      for k = 0 to Array.length row - 1 do
        let j, rel = row.(k) in
        let at =
          match rel with
          | Relationship.Provider -> p
          | Relationship.Peer -> q
          | Relationship.Customer -> c
        in
        rows.(!at) <- j;
        incr at
      done
    done;
    { asns; ids; neighbor_arr; tiers; rows; row_start; peers_from;
      customers_from }

  let n t = Array.length t.asns
  let asn_of_id t i = t.asns.(i)
  let id_of_asn t a = Asn.Table.find t.ids a
  let neighbors t i = t.neighbor_arr.(i)
  let tier t i = t.tiers.(i)
  let rows t = t.rows
  let row_start t = t.row_start
  let peers_from t = t.peers_from
  let customers_from t = t.customers_from
end
