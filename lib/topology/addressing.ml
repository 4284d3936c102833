type t = {
  by_prefix : Asn.t Prefix_trie.t;
  by_asn : Prefix.t list Asn.Table.t;  (* least specific first *)
}

(* Sequential carving: align the cursor to the block size, take the block,
   advance. Guarantees all top-level blocks are disjoint. *)
type cursor = { mutable pos : int }

let carve cur len =
  let size = 1 lsl (32 - len) in
  let aligned = (cur.pos + size - 1) land lnot (size - 1) in
  cur.pos <- aligned + size;
  if cur.pos > 0xE0000000 then failwith "Addressing: address space exhausted";
  Prefix.make (Ipv4.of_int_trunc aligned) len

let allocate ~rng g =
  let by_asn = Asn.Table.create 1024 in
  let cur = { pos = 0x01000000 } in
  let all = ref [] in
  let announce asn p = all := (p, asn) :: !all in
  List.iter
    (fun asn ->
       let info = As_graph.info g asn in
       let blocks = ref [] in
       let top_lens =
         match info.As_graph.tier with
         | As_graph.Tier1 -> [ 16 ]
         | As_graph.Transit -> if Rng.bool rng then [ 18; 20 ] else [ 19 ]
         | As_graph.Stub ->
             if info.As_graph.hosting_weight > 10.0 then [ 15 ]
             else if info.As_graph.hosting_weight > 0. then [ 17 + Rng.int rng 3 ]
             else if Rng.float rng 1.0 < 0.25 then [ 21 + Rng.int rng 3; 22 + Rng.int rng 3 ]
             else [ 21 + Rng.int rng 4 ]
       in
       List.iter
         (fun len ->
            let p = carve cur len in
            blocks := p :: !blocks;
            announce asn p;
            (* Nested more-specific announcements inside the aggregate:
               common for traffic engineering, and what makes the Tor-prefix
               mapping a real longest-prefix-match problem. *)
            let big_hoster = info.As_graph.hosting_weight > 10.0 in
            let hoster = info.As_graph.hosting_weight > 0. in
            if (len <= 20 && Rng.float rng 1.0 < 0.35) || hoster then begin
              (* Hosting ASes (the Hetzner-style /15s especially)
                 de-aggregate a lot, which is what keeps
                 relays-per-most-specific-prefix bounded in the paper's
                 data. *)
              let n_nested =
                if big_hoster then 10 + Rng.int rng 6
                else if hoster then 2 + Rng.int rng 4
                else 1 + Rng.int rng 3
              in
              for _ = 1 to n_nested do
                let extra = 2 + Rng.int rng 4 in
                let sub_len = min 24 (len + extra) in
                let offset = Rng.int rng (1 lsl (sub_len - len)) in
                let sub_net =
                  Ipv4.add (Prefix.network p) (offset * (1 lsl (32 - sub_len)))
                in
                let sub = Prefix.make sub_net sub_len in
                if not (List.exists (Prefix.equal sub) !blocks) then begin
                  blocks := !blocks @ [ sub ];
                  announce asn sub
                end
              done
            end)
         top_lens;
       Asn.Table.replace by_asn asn (List.rev !blocks))
    (As_graph.ases g);
  let by_prefix =
    List.fold_left (fun t (p, asn) -> Prefix_trie.add p asn t) Prefix_trie.empty !all
  in
  { by_prefix; by_asn }

let origin t p = Prefix_trie.find p t.by_prefix

let prefixes_of t asn =
  match Asn.Table.find_opt t.by_asn asn with
  | Some l -> List.sort (fun a b -> Int.compare (Prefix.length a) (Prefix.length b)) l
  | None -> []

let originates t asn =
  match Asn.Table.find_opt t.by_asn asn with
  | Some (_ :: _) -> true
  | Some [] | None -> false

let announced t = Prefix_trie.to_list t.by_prefix

let count t = Prefix_trie.cardinal t.by_prefix

let trie t = t.by_prefix

let covering_prefix t addr = Prefix_trie.longest_match addr t.by_prefix

let address_in ~rng t asn =
  match prefixes_of t asn with
  | [] -> raise Not_found
  | blocks ->
      (* Pick among all the AS's announced blocks (nested ones included) so
         hosts spread across its de-aggregated prefixes, as relays do in
         the paper's data. *)
      let p = Rng.pick_list rng blocks in
      (* avoid network/broadcast-looking extremes for realism *)
      let size = Prefix.size p in
      if size <= 2 then Prefix.first p
      else Prefix.nth p (1 + Rng.int rng (size - 2))
