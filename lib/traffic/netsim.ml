type node = int

type packet = {
  src : Ipv4.t;
  dst : Ipv4.t;
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  payload : int;
  wnd : int;
  syn : bool;
  fin : bool;
}

(* A link direction's numbers, in an all-float record so that they are
   stored unboxed and [last_delivery] is written without allocating. *)
type timing = {
  latency : float;
  jitter : float;  (* clamped to >= 0 when the link is made *)
  loss : float;
  mutable last_delivery : float;  (* enforce in-order delivery *)
}

(* A link direction keeps its in-flight packets itself, in FIFO order: a
   ring of [count] packets from slot [head], each with its arrival time
   and arrival number. Only the head is in the event queue, through the
   link's one [delivery] handle, so the queue holds one entry per busy
   link rather than one per packet. Vacant ring slots hold [vacant]. *)
type link_dir = {
  dst : node;
  timing : timing;
  mutable tap : (t -> packet -> unit) option;
      (* called with the simulator, not the time: a float passed to an
         unknown closure would be boxed on every tapped packet *)
  mutable packets : packet array;
  mutable arrivals : Float.Array.t;
  mutable seqs : int array;
  mutable head : int;
  mutable count : int;
  mutable delivery : event Pqueue.handle;
}

and event =
  | Deliver of link_dir
  | Fire of (t -> unit)

and t = {
  rng : Rng.t;
  clock : clock;
  queue : event Pqueue.t;
  mutable handlers : (t -> packet -> unit) option array;
  mutable out : link_dir list array;  (* per node: its outgoing directions *)
  mutable n_nodes : int;
}

and clock = { mutable now : float }

type timer = event Pqueue.handle

let vacant =
  { src = Ipv4.of_int_trunc 0; dst = Ipv4.of_int_trunc 0; sport = 0; dport = 0;
    seq = 0; ack = 0; payload = 0; wnd = 0; syn = false; fin = false }

(* Stands in for a link's delivery handle until [link] makes the real one,
   which needs the link it delivers for. Never armed. *)
let unset_delivery = Pqueue.handle (Fire ignore)

let create ~rng () =
  { rng; clock = { now = 0. }; queue = Pqueue.create (); handlers = Array.make 16 None;
    out = Array.make 16 []; n_nodes = 0 }

let now t = t.clock.now

let add_node t =
  if t.n_nodes = Array.length t.handlers then begin
    let grow a fill =
      let b = Array.make (2 * t.n_nodes) fill in
      Array.blit a 0 b 0 t.n_nodes;
      b
    in
    t.handlers <- grow t.handlers None;
    t.out <- grow t.out []
  end;
  let id = t.n_nodes in
  t.n_nodes <- t.n_nodes + 1;
  id

let check_node t fn node =
  if node < 0 || node >= t.n_nodes then invalid_arg (Printf.sprintf "Netsim.%s: bad node" fn)

let set_handler t node f =
  check_node t "set_handler" node;
  t.handlers.(node) <- Some f

let rec find_dir a b = function
  | l :: rest -> if l.dst = b then l else find_dir a b rest
  | [] -> invalid_arg (Printf.sprintf "Netsim: no link %d -> %d" a b)

let get_link t a b = find_dir a b (if a >= 0 && a < t.n_nodes then t.out.(a) else [])

let link t a b ~latency ?(jitter = 0.) ?(loss = 0.) () =
  if a = b then invalid_arg "Netsim.link: self link";
  check_node t "link" a;
  check_node t "link" b;
  if List.exists (fun l -> l.dst = b) t.out.(a) then invalid_arg "Netsim.link: duplicate link";
  let dir src dst =
    let d =
      { dst; timing = { latency; jitter = Float.max 0. jitter; loss; last_delivery = 0. };
        tap = None; packets = [||]; arrivals = Float.Array.create 0; seqs = [||];
        head = 0; count = 0; delivery = unset_delivery }
    in
    d.delivery <- Pqueue.handle (Deliver d);
    t.out.(src) <- d :: t.out.(src)
  in
  dir a b;
  dir b a

let set_tap t ~from ~to_ f = (get_link t from to_).tap <- Some f

(* Doubles a full ring, unrolling it to start at slot 0. *)
let grow_ring l =
  let cap = Array.length l.packets in
  let cap' = Int.max 16 (2 * cap) in
  let packets = Array.make cap' vacant in
  let arrivals = Float.Array.create cap' in
  let seqs = Array.make cap' 0 in
  for k = 0 to l.count - 1 do
    let j = (l.head + k) mod cap in
    packets.(k) <- l.packets.(j);
    Float.Array.set arrivals k (Float.Array.get l.arrivals j);
    seqs.(k) <- l.seqs.(j)
  done;
  l.packets <- packets;
  l.arrivals <- arrivals;
  l.seqs <- seqs;
  l.head <- 0

let send t ~from ~to_ packet =
  let l = get_link t from to_ in
  (match l.tap with
   | Some tap -> tap t packet
   | None -> ());
  let tm = l.timing in
  if Rng.float t.rng 1.0 >= tm.loss then begin
    let arrival = t.clock.now +. tm.latency +. Rng.float t.rng tm.jitter in
    (* FIFO links: jitter cannot reorder packets. So each link's
       (arrival, arrival number) pairs rise, and its head is its least. *)
    let arrival = Float.max arrival tm.last_delivery in
    tm.last_delivery <- arrival;
    let seq = Pqueue.take_arrival t.queue in
    if l.count = Array.length l.packets then grow_ring l;
    let cap = Array.length l.packets in
    let j = l.head + l.count in
    let j = if j >= cap then j - cap else j in
    l.packets.(j) <- packet;
    Float.Array.set l.arrivals j arrival;
    l.seqs.(j) <- seq;
    l.count <- l.count + 1;
    if l.count = 1 then Pqueue.arm_at t.queue l.delivery arrival seq
  end

(* Takes the link's head packet, re-arms the link from the next one (under
   that packet's own arrival number), then hands the packet over. *)
let deliver t l =
  let i = l.head in
  let packet = l.packets.(i) in
  l.packets.(i) <- vacant;
  l.head <- (if i + 1 = Array.length l.packets then 0 else i + 1);
  l.count <- l.count - 1;
  if l.count > 0 then
    Pqueue.arm_at t.queue l.delivery (Float.Array.get l.arrivals l.head) l.seqs.(l.head);
  match t.handlers.(l.dst) with
  | Some h -> h t packet
  | None -> ()

let schedule t delay f = Pqueue.push t.queue (t.clock.now +. delay) (Fire f)

let timer f = Pqueue.handle (Fire f)
let arm t timer delay = Pqueue.arm t.queue timer (t.clock.now +. delay)
let cancel t timer = Pqueue.cancel t.queue timer
let armed = Pqueue.queued

let run ?(until = infinity) t =
  let q = t.queue in
  while Pqueue.due q until do
    t.clock.now <- Pqueue.min_key q;
    match Pqueue.pop_min q with
    | Deliver l -> deliver t l
    | Fire f -> f t
  done;
  if not (Pqueue.is_empty q) then t.clock.now <- until
