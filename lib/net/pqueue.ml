type 'a elt =
  | Vacant
  | Plain of 'a
  | Held of 'a handle

and 'a handle = { mutable id : int; value : 'a }
(* [id] is the handle's entry id while it is queued, -1 otherwise. *)

(* The heap is three int-or-float arrays in heap order: slot [i] holds key
   [keys.(i)], arrival number [seqs.(i)] and entry id [ids.(i)]. Entries
   stay put in a table indexed by entry id: [elts.(id)] is the entry and
   [pos.(id)] its heap slot. A sift therefore writes only unboxed floats
   and ints, never the boxed entry table. Free entry ids form a list
   threaded through [pos] ([free] is its head, -1 when empty); a free id's
   entry is [Vacant], so the table never retains a popped value, and
   grown capacity starts vacant rather than filled with a dummy entry. *)
type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable ids : int array;
  mutable elts : 'a elt array;
  mutable pos : int array;
  mutable free : int;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = Float.Array.create 0; seqs = [||]; ids = [||]; elts = [||]; pos = [||];
    free = -1; size = 0; next_seq = 0 }

let is_empty q = q.size = 0
let length q = q.size

let[@inline] place q i key seq id =
  Float.Array.unsafe_set q.keys i key;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.ids i id;
  Array.unsafe_set q.pos id i

(* Does slot [i] pop before an entry with this key and arrival number? *)
let[@inline] before q i key seq =
  let k = Float.Array.unsafe_get q.keys i in
  k < key || (k = key && Array.unsafe_get q.seqs i < seq)

let[@inline] less q i j =
  before q i (Float.Array.unsafe_get q.keys j) (Array.unsafe_get q.seqs j)

(* Hole-based sifts: the entry at [i0] is held in locals while the entries
   it passes move one level, and is written once, at its final slot. *)
let sift_up q i0 =
  let key = Float.Array.unsafe_get q.keys i0 in
  let seq = Array.unsafe_get q.seqs i0 and id = Array.unsafe_get q.ids i0 in
  let i = ref i0 and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if before q p key seq then moving := false
    else begin
      place q !i (Float.Array.unsafe_get q.keys p) (Array.unsafe_get q.seqs p)
        (Array.unsafe_get q.ids p);
      i := p
    end
  done;
  place q !i key seq id

let sift_down q i0 =
  let key = Float.Array.unsafe_get q.keys i0 in
  let seq = Array.unsafe_get q.seqs i0 and id = Array.unsafe_get q.ids i0 in
  let i = ref i0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= q.size then moving := false
    else begin
      let c = if l + 1 < q.size && less q (l + 1) l then l + 1 else l in
      if before q c key seq then begin
        place q !i (Float.Array.unsafe_get q.keys c) (Array.unsafe_get q.seqs c)
          (Array.unsafe_get q.ids c);
        i := c
      end
      else moving := false
    end
  done;
  place q !i key seq id

(* Restores heap order around slot [i] after its entry changed. *)
let resift q i = if i > 0 && less q i ((i - 1) / 2) then sift_up q i else sift_down q i

(* Doubles every array; the new entry ids join the free list. Only called
   when every id is live, so the old ids need no relinking. *)
let grow q =
  let old = Array.length q.elts in
  let cap = Int.max 16 (2 * old) in
  let keys = Float.Array.create cap in
  Float.Array.blit q.keys 0 keys 0 q.size;
  let ints a =
    let b = Array.make cap (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let elts = Array.make cap Vacant in
  Array.blit q.elts 0 elts 0 old;
  q.keys <- keys;
  q.seqs <- ints q.seqs;
  q.ids <- ints q.ids;
  q.elts <- elts;
  q.pos <- ints q.pos;
  for id = cap - 1 downto old do
    q.pos.(id) <- q.free;
    q.free <- id
  done

let insert q key seq elt =
  if q.free < 0 then grow q;
  let id = q.free in
  q.free <- q.pos.(id);
  q.elts.(id) <- elt;
  (match elt with
   | Held h -> h.id <- id
   | Vacant | Plain _ -> ());
  let i = q.size in
  q.size <- i + 1;
  place q i key seq id;
  sift_up q i

let take_arrival q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let push q key value = insert q key (take_arrival q) (Plain value)

let min_key q =
  if q.size = 0 then invalid_arg "Pqueue.min_key: empty queue";
  Float.Array.get q.keys 0

let due q limit = q.size > 0 && Float.Array.get q.keys 0 <= limit

(* Removes slot [i] and returns its value: the last entry fills the hole,
   and the entry id goes back on the free list with its entry cleared. *)
let remove_at q i =
  let id = q.ids.(i) in
  let elt = q.elts.(id) in
  q.elts.(id) <- Vacant;
  q.pos.(id) <- q.free;
  q.free <- id;
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    place q i (Float.Array.get q.keys last) q.seqs.(last) q.ids.(last);
    resift q i
  end;
  match elt with
  | Plain v -> v
  | Held h ->
      h.id <- -1;
      h.value
  | Vacant -> invalid_arg "Pqueue: vacant entry inside the live heap"

let pop_min q =
  if q.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  remove_at q 0

let pop q =
  if q.size = 0 then None
  else begin
    let key = Float.Array.get q.keys 0 in
    Some (key, remove_at q 0)
  end

let pop_until q limit =
  let rec loop acc =
    if due q limit then begin
      let key = Float.Array.get q.keys 0 in
      loop ((key, remove_at q 0) :: acc)
    end
    else List.rev acc
  in
  loop []

let drain q = pop_until q infinity

let handle value = { id = -1; value }
let queued h = h.id >= 0

(* The entry a queued handle claims must be that handle: a handle queued
   in another queue would otherwise move that queue's entry. *)
let slot_of q h =
  let id = h.id in
  let mine =
    id < Array.length q.elts
    && match q.elts.(id) with Held h' -> h' == h | Vacant | Plain _ -> false
  in
  if mine then q.pos.(id) else invalid_arg "Pqueue: handle queued in another queue"

(* Moves the queued entry at heap slot [i] to a new key and arrival. *)
let move q i key seq =
  Float.Array.set q.keys i key;
  q.seqs.(i) <- seq;
  resift q i

let arm_at q h key seq =
  if seq < 0 || seq >= q.next_seq then invalid_arg "Pqueue.arm_at: arrival number not taken";
  if h.id < 0 then insert q key seq (Held h) else move q (slot_of q h) key seq

let arm q h key =
  if h.id < 0 then insert q key (take_arrival q) (Held h)
  else begin
    (* The slot is checked before a number is taken, so arming a handle
       queued elsewhere leaves the arrival counter as it was. *)
    let i = slot_of q h in
    move q i key (take_arrival q)
  end

let cancel q h = if h.id >= 0 then ignore (remove_at q (slot_of q h))
