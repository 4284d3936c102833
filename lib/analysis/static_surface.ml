type t = {
  reach : Reach.t;
  cache : Reach.closure Asn.Table.t;
}

let create graph = { reach = Reach.create graph; cache = Asn.Table.create 64 }

let closure t a =
  match Asn.Table.find_opt t.cache a with
  | Some c -> c
  | None ->
      let c = Reach.compute t.reach a in
      Metrics.incr Manifest.surface_closures;
      Asn.Table.add t.cache a c;
      c

let exposure_bound t ~client ~guard =
  Reach.exposure ~src:(closure t client) ~dst:(closure t guard)

(* Non-empty exposure iff the endpoints are mutually reachable: any
   valley-free client->guard walk puts both endpoints in the bound, and
   conversely the guard is on such a walk iff one exists. *)
let pair_connected t ~client ~guard = Reach.reaches (closure t client) guard

let can_hear t ~listener ~origin = Reach.reaches (closure t origin) listener

(* Customer-cone protection (equal-specific races only): if the victim is
   in x's customer cone and the adversary is not, every customer-learned
   route at x descends to an origin inside the cone — so x always holds a
   customer route to the true origin and prefers it over anything the
   adversary (reaching x only via peers or providers) can offer. *)
let protected_ t ~adversary ~victim x =
  Reach.uphill_only (closure t victim) x
  && not (Reach.uphill_only (closure t adversary) x)

let can_blackhole t ?(same_prefix = false) ~adversary ~victim x =
  Reach.reaches (closure t adversary) x
  && not (same_prefix && protected_ t ~adversary ~victim x)

let can_intercept t ~adversary ~victim x =
  can_blackhole t ~same_prefix:true ~adversary ~victim x
  && can_hear t ~listener:adversary ~origin:victim

type feasibility = {
  adversary : Asn.t;
  pairs : int;
  blackhole_subprefix : int;
  blackhole_same_prefix : int;
  intercept : int;
}

let feasibility t ~pairs adversary =
  Metrics.incr Manifest.surface_adversaries;
  Metrics.add Manifest.surface_pairs (List.length pairs);
  (* The return-path leg of interception does not depend on the pair, so
     hoist it out of the per-pair loop. *)
  let returnable victim = can_hear t ~listener:adversary ~origin:victim in
  List.fold_left
    (fun acc (client, guard) ->
       let sub = can_blackhole t ~adversary ~victim:guard client in
       let same =
         sub && can_blackhole t ~same_prefix:true ~adversary ~victim:guard client
       in
       let icept = same && returnable guard in
       { acc with
         pairs = acc.pairs + 1;
         blackhole_subprefix = acc.blackhole_subprefix + Bool.to_int sub;
         blackhole_same_prefix = acc.blackhole_same_prefix + Bool.to_int same;
         intercept = acc.intercept + Bool.to_int icept })
    { adversary; pairs = 0; blackhole_subprefix = 0; blackhole_same_prefix = 0;
      intercept = 0 }
    pairs

let resilience t ~adversaries ~victim x =
  match adversaries with
  | [] -> 1.0
  | _ ->
      let safe =
        List.fold_left
          (fun n a ->
             if can_blackhole t ~same_prefix:true ~adversary:a ~victim x then n
             else n + 1)
          0 adversaries
      in
      float_of_int safe /. float_of_int (List.length adversaries)
