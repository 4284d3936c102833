(** Minimal mutable min-priority queue (binary heap) keyed by float.

    Used by the BGP dynamics simulator for pending timed events and for
    time-ordering emitted updates, by the streaming monitor's window and
    ingest buffer, and by the packet simulator ({!Qs_traffic.Netsim}).

    {b Order.} Entries pop in (key, arrival number) order. Every {!push}
    or {!arm} takes the next arrival number, so ties pop in insertion
    order. {!take_arrival} takes a number without queueing anything, and
    {!arm_at} queues a handle under a number taken earlier: a caller that
    holds entries back (the packet simulator keeps one heap entry per link
    and the rest of the link's packets in its own FIFO) can still have
    them pop exactly where a {!push} at the moment the number was taken
    would have put them.

    {b Layout.} The heap itself is three unboxed arrays in heap order:
    keys (a [Float.Array]), arrival numbers and entry ids. Entries stay
    put in a table indexed by entry id, which also records each entry's
    heap slot, and free ids form a list. A sift moves only floats and
    ints, never an entry, and a handle keeps its entry id while it is
    queued, so re-keying it writes no entry either.

    Keys are stored unboxed; {!due} and {!pop_until} peek at the smallest
    key without allocating. The queue never retains values it no longer
    holds: popping an entry clears its table slot, and freshly-grown
    capacity is empty rather than filled with a dummy entry, so
    long-running simulations do not pin dead events against the GC. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q key v] inserts [v] with priority [key]. *)

val min_key : 'a t -> float
(** Smallest key, without popping. @raise Invalid_argument if empty. *)

val due : 'a t -> float -> bool
(** [due q limit] is [not (is_empty q) && min_key q <= limit]. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest key. *)

val pop_min : 'a t -> 'a
(** Like {!pop}, returning only the value (read the key first with
    {!min_key}). @raise Invalid_argument if empty. *)

val pop_until : 'a t -> float -> (float * 'a) list
(** [pop_until q limit] pops all entries with key <= [limit], in key order. *)

val drain : 'a t -> (float * 'a) list
(** Pops everything, in key order. *)

(** {1 Handles}

    A handle is a persistent entry that can be queued, moved to a new key
    and taken out again, without allocating a new entry each time: the
    re-armable timers of {!Qs_traffic.Netsim} are handles. A handle is in
    at most one queue at a time; it leaves the queue when it pops or is
    cancelled, and can then be armed again. *)

type 'a handle

val handle : 'a -> 'a handle
(** A handle carrying [v], not queued. *)

val queued : 'a handle -> bool

val arm : 'a t -> 'a handle -> float -> unit
(** [arm q h key] queues [h] at [key], or moves it there if it is already
    queued. Either way it takes the next arrival number, exactly as a
    {!push} at this moment would: a re-armed handle pops after every entry
    already queued at the same key.
    @raise Invalid_argument if [h] is queued in another queue. *)

val take_arrival : 'a t -> int
(** Takes the next arrival number, as a {!push} at this moment would, and
    queues nothing: the number is for a later {!arm_at}. *)

val arm_at : 'a t -> 'a handle -> float -> int -> unit
(** [arm_at q h key seq] queues [h] at [key] under the arrival number
    [seq], or moves it there if it is already queued. [seq] must come from
    {!take_arrival} on [q] and be given to one queued entry at a time;
    [h] then pops exactly where a {!push} at [key] made when [seq] was
    taken would have.
    @raise Invalid_argument if [seq] is not a number [q] has handed out,
    or if [h] is queued in another queue. *)

val cancel : 'a t -> 'a handle -> unit
(** [cancel q h] takes [h] out of [q]; a no-op if it is not queued.
    @raise Invalid_argument if [h] is queued in another queue. *)
