(** A bounded least-recently-used map whose evicted values are handed
    back for reuse.

    The dynamics simulator keeps one over large per-AS arrays: the
    per-origin {!Propagate.Delta} states. Once full, every insertion
    evicts the least-recently-used entry, and the value it held is passed
    to the inserting caller, which overwrites it in place instead of
    allocating a fresh one. Keys use structural equality and [Hashtbl.hash].

    [find] and [add] are O(1) plus the key's hash: recency is an
    intrusive doubly-linked list, and the victim is its oldest end. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument if [capacity <= 0]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit makes the entry the most recently used. *)

val add : ('k, 'v) t -> 'k -> ('v option -> 'v) -> 'v
(** [add t k make] binds [k] to [make victim] as the most recently used
    entry and returns that value. An existing binding of [k] is dropped
    first. If the map is then full, its least-recently-used entry is
    evicted and [victim] is [Some] of its value — the caller may recycle
    it, and nothing else refers to it any more; otherwise [victim] is
    [None]. *)

val length : ('k, 'v) t -> int
