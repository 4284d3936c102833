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

type link_dir = {
  dst : node;
  latency : float;
  jitter : float;
  loss : float;
  mutable tap : (float -> packet -> unit) option;
  mutable last_delivery : float;  (* enforce in-order delivery *)
}

type event =
  | Deliver of node * packet
  | Fire of (t -> unit)

and t = {
  rng : Rng.t;
  mutable time : float;
  queue : event Pqueue.t;
  mutable handlers : (t -> packet -> unit) option array;
  mutable out : link_dir list array;  (* per node: its outgoing directions *)
  mutable n_nodes : int;
}

type timer = event Pqueue.handle

let create ~rng () =
  { rng; time = 0.; queue = Pqueue.create (); handlers = Array.make 16 None;
    out = Array.make 16 []; n_nodes = 0 }

let now t = t.time

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
    let d = { dst; latency; jitter; loss; tap = None; last_delivery = 0. } in
    t.out.(src) <- d :: t.out.(src)
  in
  dir a b;
  dir b a

let set_tap t ~from ~to_ f = (get_link t from to_).tap <- Some f

let send t ~from ~to_ packet =
  let l = get_link t from to_ in
  (match l.tap with
   | Some tap -> tap t.time packet
   | None -> ());
  if Rng.float t.rng 1.0 >= l.loss then begin
    let arrival = t.time +. l.latency +. Rng.float t.rng (max 0. l.jitter) in
    (* FIFO links: jitter cannot reorder packets. *)
    let arrival = Float.max arrival l.last_delivery in
    l.last_delivery <- arrival;
    Pqueue.push t.queue arrival (Deliver (to_, packet))
  end

let schedule t delay f = Pqueue.push t.queue (t.time +. delay) (Fire f)

let timer f = Pqueue.handle (Fire f)
let arm t timer delay = Pqueue.arm t.queue timer (t.time +. delay)
let cancel t timer = Pqueue.cancel t.queue timer
let armed = Pqueue.queued

let run ?(until = infinity) t =
  let q = t.queue in
  while Pqueue.due q until do
    t.time <- Pqueue.min_key q;
    match Pqueue.pop_min q with
    | Deliver (node, packet) -> begin
        match t.handlers.(node) with
        | Some h -> h t packet
        | None -> ()
      end
    | Fire f -> f t
  done;
  if not (Pqueue.is_empty q) then t.time <- until
