(* Recency is a doubly-linked list threaded through the table entries,
   newest to oldest: a hit moves its entry to the front, an eviction
   takes the back. *)

type ('k, 'v) entry = {
  key : 'k;
  value : 'v;
  mutable newer : ('k, 'v) entry option;
  mutable older : ('k, 'v) entry option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable newest : ('k, 'v) entry option;
  mutable oldest : ('k, 'v) entry option;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Hashtbl.create (min (2 * capacity) 4096);
    newest = None; oldest = None }

let length t = Hashtbl.length t.table

let unlink t e =
  (match e.newer with
   | Some n -> n.older <- e.older
   | None -> t.newest <- e.older);
  (match e.older with
   | Some o -> o.newer <- e.newer
   | None -> t.oldest <- e.newer);
  e.newer <- None;
  e.older <- None

let push_newest t e =
  e.older <- t.newest;
  (match t.newest with
   | Some n -> n.newer <- Some e
   | None -> t.oldest <- Some e);
  t.newest <- Some e

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
      (match t.newest with
       | Some n when n == e -> ()
       | Some _ | None -> unlink t e; push_newest t e);
      Some e.value
  | None -> None

(* Evict before inserting, so [make] can recycle the victim: the same
   victim an insert-then-evict would pick, since the new entry is never
   the oldest. *)
let add t k make =
  (match Hashtbl.find_opt t.table k with
   | Some old ->
       unlink t old;
       Hashtbl.remove t.table k
   | None -> ());
  let victim =
    if Hashtbl.length t.table < t.capacity then None
    else
      match t.oldest with
      | Some v ->
          unlink t v;
          Hashtbl.remove t.table v.key;
          Some v.value
      | None -> None
  in
  let e = { key = k; value = make victim; newer = None; older = None } in
  Hashtbl.replace t.table k e;
  push_newest t e;
  e.value
