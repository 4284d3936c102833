type entry = {
  prefix : Prefix.t;
  origin : Asn.t;
  relays : Relay.t list;
}

type t = {
  by_prefix : entry Prefix.Map.t;
  tor : unit Prefix.Table.t;  (* the keys of [by_prefix], for [is_tor_prefix] *)
  by_relay_ip : (int, Prefix.t * Asn.t) Hashtbl.t;  (* keyed by Ipv4.to_int *)
  unmapped : int;
}

let compute addressing consensus =
  let by_prefix = ref Prefix.Map.empty in
  let by_relay_ip = Hashtbl.create 1024 in
  let unmapped = ref 0 in
  List.iter
    (fun (r : Relay.t) ->
       match Addressing.covering_prefix addressing r.Relay.ip with
       | Some (prefix, origin) ->
           Hashtbl.replace by_relay_ip (Ipv4.to_int r.Relay.ip) (prefix, origin);
           let entry =
             match Prefix.Map.find_opt prefix !by_prefix with
             | Some e -> { e with relays = r :: e.relays }
             | None -> { prefix; origin; relays = [ r ] }
           in
           by_prefix := Prefix.Map.add prefix entry !by_prefix
       | None -> incr unmapped)
    (Consensus.guard_or_exit consensus);
  let tor = Prefix.Table.create (2 * Prefix.Map.cardinal !by_prefix) in
  Prefix.Map.iter (fun p _ -> Prefix.Table.replace tor p ()) !by_prefix;
  { by_prefix = !by_prefix; tor; by_relay_ip; unmapped = !unmapped }

let entries t = List.map snd (Prefix.Map.bindings t.by_prefix)

let count t = Prefix.Map.cardinal t.by_prefix

let origin_ases t =
  Prefix.Map.fold (fun _ e acc -> Asn.Set.add e.origin acc) t.by_prefix Asn.Set.empty

let unmapped t = t.unmapped

let prefix_of_relay t (r : Relay.t) =
  Hashtbl.find_opt t.by_relay_ip (Ipv4.to_int r.Relay.ip)

let relays_per_prefix t =
  Prefix.Map.fold (fun _ e acc -> List.length e.relays :: acc) t.by_prefix []
  |> List.sort Int.compare

let is_tor_prefix t p = Prefix.Table.mem t.tor p
