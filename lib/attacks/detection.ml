type alarm_kind =
  | Moas of { prefix : Prefix.t; old_origins : Asn.Set.t; new_origin : Asn.t }
  | Sub_prefix of { covering : Prefix.t; sub : Prefix.t;
                    covering_origin : Asn.t; sub_origin : Asn.t }
  | Origin_adjacency of { prefix : Prefix.t; origin : Asn.t;
                          old_neighbors : Asn.Set.t; new_neighbor : Asn.t }

type alarm = {
  time : float;
  session : Update.session_id;
  kind : alarm_kind;
}

let pp_alarm ppf a =
  match a.kind with
  | Moas { prefix; new_origin; _ } ->
      Format.fprintf ppf "%.0f MOAS %a now also originated by %a" a.time
        Prefix.pp prefix Asn.pp new_origin
  | Sub_prefix { covering; sub; sub_origin; _ } ->
      Format.fprintf ppf "%.0f SUBPREFIX %a inside %a from %a" a.time
        Prefix.pp sub Prefix.pp covering Asn.pp sub_origin
  | Origin_adjacency { prefix; origin; new_neighbor; _ } ->
      Format.fprintf ppf "%.0f ADJACENCY %a origin %a now via %a" a.time
        Prefix.pp prefix Asn.pp origin Asn.pp new_neighbor

type baseline = {
  mutable origins : Asn.Set.t;
  mutable origin_neighbors : Asn.Set.t Asn.Map.t;  (* per origin *)
}

type t = {
  learning_period : float;
  baselines : baseline Prefix.Table.t;
  trie : unit Prefix_trie.t ref;       (* known prefixes, for sub-prefix checks *)
  mutable raised : alarm list;         (* newest first *)
  cooldown : (string, float) Hashtbl.t; (* key: prefix string + kind tag *)
  mutable suspicious_prefixes : (Prefix.t * float) list;
}

let cooldown_seconds = 3600.

let create ?(learning_period = 86_400.) () =
  { learning_period;
    baselines = Prefix.Table.create 4096;
    trie = ref Prefix_trie.empty;
    raised = [];
    cooldown = Hashtbl.create 64;
    suspicious_prefixes = [] }

let baseline t p =
  match Prefix.Table.find_opt t.baselines p with
  | Some b -> b
  | None ->
      let b = { origins = Asn.Set.empty; origin_neighbors = Asn.Map.empty } in
      Prefix.Table.replace t.baselines p b;
      t.trie := Prefix_trie.add p () !(t.trie);
      b

let learn b route =
  let origin = Route.origin route in
  b.origins <- Asn.Set.add origin b.origins;
  match List.rev route.Route.as_path with
  | _ :: neighbor :: _ when not (Asn.equal neighbor origin) ->
      let known =
        Option.value ~default:Asn.Set.empty (Asn.Map.find_opt origin b.origin_neighbors)
      in
      b.origin_neighbors <- Asn.Map.add origin (Asn.Set.add neighbor known) b.origin_neighbors
  | _ -> ()

let cooled t time key =
  match Hashtbl.find_opt t.cooldown key with
  | Some until when time < until -> true
  | Some _ | None ->
      Hashtbl.replace t.cooldown key (time +. cooldown_seconds);
      false

let alarm_prefix a =
  match a.kind with
  | Moas { prefix; _ } -> prefix
  | Sub_prefix { sub; _ } -> sub
  | Origin_adjacency { prefix; _ } -> prefix

let raise_alarm t time session kind out =
  let a = { time; session; kind } in
  let prefix = alarm_prefix a in
  let tag =
    match kind with
    | Moas _ -> "moas"
    | Sub_prefix _ -> "sub"
    | Origin_adjacency _ -> "adj"
  in
  let key = Prefix.to_string prefix ^ "/" ^ tag in
  if cooled t time key then out
  else begin
    t.raised <- a :: t.raised;
    t.suspicious_prefixes <- (prefix, time) :: t.suspicious_prefixes;
    a :: out
  end

let observe t (u : Update.t) =
  match u.Update.kind with
  | Update.Withdraw _ -> []
  | Update.Announce route ->
      let p = route.Route.prefix in
      let origin = Route.origin route in
      let learning = u.Update.time < t.learning_period in
      let b = baseline t p in
      let out = [] in
      let out =
        if learning || Asn.Set.is_empty b.origins || Asn.Set.mem origin b.origins
        then out
        else
          raise_alarm t u.Update.time u.Update.session
            (Moas { prefix = p; old_origins = b.origins; new_origin = origin })
            out
      in
      (* Sub-prefix: a new, never-seen prefix nested inside a known one
         announced by a foreign origin. *)
      let out =
        if learning || Asn.Set.cardinal b.origins > 0 then out
        else begin
          let covering =
            Prefix_trie.matches (Prefix.network p) !(t.trie)
            |> List.find_opt (fun (q, ()) ->
                not (Prefix.equal q p) && Prefix.subsumes q p
                && not (Asn.Set.is_empty (baseline t q).origins))
          in
          match covering with
          | Some (q, ()) when not (Asn.Set.mem origin (baseline t q).origins) ->
              let covering_origin = Asn.Set.min_elt (baseline t q).origins in
              raise_alarm t u.Update.time u.Update.session
                (Sub_prefix { covering = q; sub = p; covering_origin;
                              sub_origin = origin })
                out
          | Some _ | None -> out
        end
      in
      let out =
        if learning then out
        else
          match List.rev route.Route.as_path with
          | _ :: neighbor :: _ when not (Asn.equal neighbor origin) -> begin
              match Asn.Map.find_opt origin b.origin_neighbors with
              | Some known
                when not (Asn.Set.is_empty known)
                  && not (Asn.Set.mem neighbor known) ->
                  raise_alarm t u.Update.time u.Update.session
                    (Origin_adjacency { prefix = p; origin;
                                        old_neighbors = known;
                                        new_neighbor = neighbor })
                    out
              | Some _ | None -> out
            end
          | _ -> out
      in
      (* Keep learning even after the learning period — yesterday's alarm
         is today's baseline, like real deployed monitors. *)
      learn b route;
      List.rev out

let suspicious t ?(since = neg_infinity) p =
  List.exists
    (fun (q, time) -> time >= since && (Prefix.equal p q || Prefix.overlaps p q))
    t.suspicious_prefixes
