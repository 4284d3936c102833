(* Bounded LRU over propagation outcomes. Keys are exact canonical
   serializations of (announcements, failed links) — structural equality,
   no lossy hashing — so a hit can never return routes for a different
   configuration; byte-identical update streams with the cache on and off
   depend on that. *)

type t = {
  lru : (string, Propagate.t) Lru.t;  (* outcomes owned by the cache *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

(* Registry mirrors of the per-cache counters, summed across every cache
   in the process (one per domain in a parallel sweep). *)
let m_hits = Metrics.counter ~help:"route cache hits" "route_cache.hits"
let m_misses = Metrics.counter ~help:"route cache misses" "route_cache.misses"

let m_evictions =
  Metrics.counter ~help:"route cache LRU evictions" "route_cache.evictions"

let create ~capacity =
  if capacity <= 0 then
    invalid_arg "Route_cache.create: capacity must be positive";
  { lru = Lru.create ~capacity; hits = 0; misses = 0; evictions = 0 }

let key ~anns ~failed =
  let buf = Buffer.create 96 in
  List.iter
    (fun (a : Announcement.t) ->
       Buffer.add_string buf (Prefix.to_string a.Announcement.prefix);
       Printf.bprintf buf "|%d|%d|"
         (Asn.to_int a.Announcement.origin) a.Announcement.prepend;
       List.iter
         (fun s -> Printf.bprintf buf "%d," (Asn.to_int s))
         a.Announcement.fake_suffix;
       Buffer.add_char buf '|';
       (match a.Announcement.export_to with
        | None -> Buffer.add_char buf '*'
        | Some set ->
            Asn.Set.iter
              (fun x -> Printf.bprintf buf "%d," (Asn.to_int x))
              set);
       Buffer.add_char buf '|';
       (match a.Announcement.max_radius with
        | None -> Buffer.add_char buf '*'
        | Some r -> Buffer.add_string buf (string_of_int r));
       Buffer.add_char buf '|';
       List.iter
         (fun (x, y) -> Printf.bprintf buf "%d:%d," x y)
         a.Announcement.communities;
       Buffer.add_char buf ';')
    anns;
  Buffer.add_char buf '#';
  List.iter
    (fun (x, y) ->
       Printf.bprintf buf "%d-%d;" (Asn.to_int x) (Asn.to_int y))
    (Link_set.elements failed);
  Buffer.contents buf

let find t k =
  match Lru.find t.lru k with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      Metrics.incr m_hits;
      hit
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr m_misses;
      None

(* A full cache copies into the evicted entry's arrays. *)
let add t k outcome =
  ignore
    (Lru.add t.lru k (fun into ->
         if Option.is_some into then begin
           t.evictions <- t.evictions + 1;
           Metrics.incr m_evictions
         end;
         Propagate.copy ?into outcome)
      : Propagate.t)

let length t = Lru.length t.lru

let stats (c : t) =
  { hits = c.hits; misses = c.misses; evictions = c.evictions;
    entries = Lru.length c.lru }

let zero_stats = { hits = 0; misses = 0; evictions = 0; entries = 0 }
