type 'a elt =
  | Vacant
  | Plain of 'a
  | Held of 'a handle

and 'a handle = { mutable pos : int; value : 'a }
(* [pos] is the handle's heap slot, or -1 while it is not queued. *)

(* Three parallel arrays: slot [i] holds key [keys.(i)], arrival number
   [seqs.(i)] and entry [elts.(i)]. Keys sit unboxed in a float array, so a
   push, a pop or a peek boxes no key. Slots at indices < size are never
   [Vacant]; slots at indices >= size always are, so the heap never
   retains entries that were popped (or dummy entries pinning some pushed
   value, as growing an ['a array] would need). *)
type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable elts : 'a elt array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = Float.Array.create 0; seqs = [||]; elts = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0
let length q = q.size

let[@inline] place q i key seq elt =
  Float.Array.unsafe_set q.keys i key;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.elts i elt;
  match elt with
  | Held h -> h.pos <- i
  | Vacant | Plain _ -> ()

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
  let seq = q.seqs.(i0) and elt = q.elts.(i0) in
  let i = ref i0 and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if before q p key seq then moving := false
    else begin
      place q !i (Float.Array.unsafe_get q.keys p) q.seqs.(p) q.elts.(p);
      i := p
    end
  done;
  place q !i key seq elt

let sift_down q i0 =
  let key = Float.Array.unsafe_get q.keys i0 in
  let seq = q.seqs.(i0) and elt = q.elts.(i0) in
  let i = ref i0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= q.size then moving := false
    else begin
      let c = if l + 1 < q.size && less q (l + 1) l then l + 1 else l in
      if before q c key seq then begin
        place q !i (Float.Array.unsafe_get q.keys c) q.seqs.(c) q.elts.(c);
        i := c
      end
      else moving := false
    end
  done;
  place q !i key seq elt

(* Restores heap order around slot [i] after its entry changed. *)
let resift q i = if i > 0 && less q i ((i - 1) / 2) then sift_up q i else sift_down q i

let insert q key elt =
  if q.size = Array.length q.elts then begin
    let cap = max 16 (2 * q.size) in
    let keys = Float.Array.create cap in
    Float.Array.blit q.keys 0 keys 0 q.size;
    let seqs = Array.make cap 0 in
    Array.blit q.seqs 0 seqs 0 q.size;
    let elts = Array.make cap Vacant in
    Array.blit q.elts 0 elts 0 q.size;
    q.keys <- keys;
    q.seqs <- seqs;
    q.elts <- elts
  end;
  let i = q.size in
  q.size <- i + 1;
  place q i key q.next_seq elt;
  q.next_seq <- q.next_seq + 1;
  sift_up q i

let push q key value = insert q key (Plain value)

let min_key q =
  if q.size = 0 then invalid_arg "Pqueue.min_key: empty queue";
  Float.Array.get q.keys 0

let due q limit = q.size > 0 && Float.Array.get q.keys 0 <= limit

(* Removes slot [i] and returns its value: the last entry fills the hole. *)
let remove_at q i =
  let elt = q.elts.(i) in
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    place q i (Float.Array.get q.keys last) q.seqs.(last) q.elts.(last);
    resift q i
  end;
  q.elts.(last) <- Vacant;
  match elt with
  | Plain v -> v
  | Held h ->
      h.pos <- -1;
      h.value
  | Vacant -> invalid_arg "Pqueue: vacant slot inside the live heap"

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

let handle value = { pos = -1; value }
let queued h = h.pos >= 0

(* The slot a queued handle claims must hold that handle: a handle queued
   in another queue would otherwise move that queue's entry. *)
let slot_of q h =
  let i = h.pos in
  let mine =
    i < q.size && match q.elts.(i) with Held h' -> h' == h | Vacant | Plain _ -> false
  in
  if mine then i else invalid_arg "Pqueue: handle queued in another queue"

let arm q h key =
  if h.pos < 0 then insert q key (Held h)
  else begin
    let i = slot_of q h in
    Float.Array.set q.keys i key;
    q.seqs.(i) <- q.next_seq;
    q.next_seq <- q.next_seq + 1;
    resift q i
  end

let cancel q h = if h.pos >= 0 then ignore (remove_at q (slot_of q h))
