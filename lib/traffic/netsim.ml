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
  latency : float;
  jitter : float;
  loss : float;
  mutable tap : (float -> packet -> unit) option;
  mutable last_delivery : float;  (* enforce in-order delivery *)
}

type event =
  | Deliver of node * packet
  | Timer of (t -> unit)

and t = {
  rng : Rng.t;
  mutable time : float;
  queue : event Pqueue.t;
  mutable handlers : (t -> packet -> unit) option array;
  mutable n_nodes : int;
  links : (int * int, link_dir) Hashtbl.t;  (* directed *)
}

let create ~rng () =
  { rng; time = 0.; queue = Pqueue.create (); handlers = Array.make 16 None;
    n_nodes = 0; links = Hashtbl.create 32 }

let now t = t.time

let add_node t =
  if t.n_nodes = Array.length t.handlers then begin
    let handlers = Array.make (2 * t.n_nodes) None in
    Array.blit t.handlers 0 handlers 0 t.n_nodes;
    t.handlers <- handlers
  end;
  let id = t.n_nodes in
  t.n_nodes <- t.n_nodes + 1;
  id

let set_handler t node f =
  if node < 0 || node >= t.n_nodes then invalid_arg "Netsim.set_handler: bad node";
  t.handlers.(node) <- Some f

let link t a b ~latency ?(jitter = 0.) ?(loss = 0.) () =
  if a = b then invalid_arg "Netsim.link: self link";
  if Hashtbl.mem t.links (a, b) then invalid_arg "Netsim.link: duplicate link";
  let dir () =
    { latency; jitter; loss; tap = None; last_delivery = 0. }
  in
  Hashtbl.replace t.links (a, b) (dir ());
  Hashtbl.replace t.links (b, a) (dir ())

let get_link t a b =
  match Hashtbl.find_opt t.links (a, b) with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Netsim: no link %d -> %d" a b)

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

let schedule t delay f = Pqueue.push t.queue (t.time +. delay) (Timer f)

let run ?(until = infinity) t =
  let continue = ref true in
  while !continue do
    match Pqueue.min_key t.queue with
    | None -> continue := false
    | Some key when key > until ->
        t.time <- until;
        continue := false
    | Some _ -> (
        match Pqueue.pop t.queue with
        | None -> continue := false
        | Some (time, ev) ->
            t.time <- time;
            (match ev with
             | Deliver (node, packet) -> begin
                 match t.handlers.(node) with
                 | Some h -> h t packet
                 | None -> ()
               end
             | Timer f -> f t))
  done
