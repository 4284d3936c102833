type options = {
  mss : int;
  rwnd : int;
  initial_cwnd : int;
  delack_timeout : float;
}

let default_options =
  { mss = 1460; rwnd = 131072; initial_cwnd = 14600; delack_timeout = 0.04 }

type conn = {
  net : Netsim.t;
  opts : options;
  local_node : Netsim.node;
  peer_node : Netsim.node;
  local_ip : Ipv4.t;
  remote_ip : Ipv4.t;
  lport : int;
  rport : int;
  (* sender state *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable backlog : int;          (* app bytes not yet given a sequence *)
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable dupacks : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : float;
  mutable rto_timer : Netsim.timer;
  mutable sample_seq : int;       (* segment end being timed; -1 = none *)
  mutable sample_sent : float;
  (* receiver state *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list; (* disjoint [start, end) intervals, sorted *)
  mutable delack_count : int;
  mutable delack_timer : Netsim.timer;
  mutable delivered : int;
  mutable consumed : int;          (* bytes the application has drained *)
  mutable manual_consume : bool;
  mutable peer_wnd : int;          (* peer's last advertised window *)
  mutable on_receive : int -> unit;
  mutable n_rto : int;
  mutable n_fast_rtx : int;
}

type endpoint = {
  e_net : Netsim.t;
  e_node : Netsim.node;
  e_ip : Ipv4.t;
  mutable conns : conn option array;
      (* indexed by local port - first_port: ports are handed out densely *)
  mutable next_port : int;
}

let first_port = 10000

(* --- sending machinery --------------------------------------------- *)

let advertised_window c =
  Int.max 0 (c.opts.rwnd - (c.delivered - c.consumed))

let packet c ~seq ~payload =
  { Netsim.src = c.local_ip; dst = c.remote_ip; sport = c.lport; dport = c.rport;
    seq; ack = c.rcv_nxt; payload; wnd = advertised_window c;
    syn = false; fin = false }

let transmit c p = Netsim.send c.net ~from:c.local_node ~to_:c.peer_node p

(* A pending retransmission deadline stands until an ACK advances
   [snd_una]: new segments do not push it back. *)
let rec arm_rto c = if not (Netsim.armed c.rto_timer) then Netsim.arm c.net c.rto_timer c.rto

and on_rto c =
  if c.snd_una < c.snd_nxt then begin
    c.n_rto <- c.n_rto + 1;
    (* Go-back-N: collapse the window and resend from snd_una. *)
    c.ssthresh <- Float.max (2. *. float_of_int c.opts.mss) (c.cwnd /. 2.);
    c.cwnd <- float_of_int c.opts.mss;
    c.backlog <- c.backlog + (c.snd_nxt - c.snd_una);
    c.snd_nxt <- c.snd_una;
    c.rto <- Float.min 8. (c.rto *. 2.);
    c.sample_seq <- -1;
    try_send c
  end

and try_send c =
  let window = Int.min (int_of_float c.cwnd) (Int.min c.opts.rwnd (Int.max c.peer_wnd 1)) in
  let continue = ref true in
  while !continue && c.backlog > 0 && c.snd_nxt - c.snd_una < window do
    (* Never let the flight exceed the window, even by a partial segment. *)
    let room = window - (c.snd_nxt - c.snd_una) in
    let payload = Int.min (Int.min c.opts.mss c.backlog) room in
    let seq = c.snd_nxt in
    c.snd_nxt <- c.snd_nxt + payload;
    c.backlog <- c.backlog - payload;
    if c.sample_seq < 0 then begin
      c.sample_seq <- seq + payload;
      c.sample_sent <- Netsim.now c.net
    end;
    transmit c (packet c ~seq ~payload);
    arm_rto c;
    if c.snd_nxt - c.snd_una >= window then continue := false
  done

let send_pure_ack c =
  c.delack_count <- 0;
  Netsim.cancel c.net c.delack_timer;
  transmit c (packet c ~seq:c.snd_nxt ~payload:0)

(* --- receiving machinery -------------------------------------------- *)

let update_rtt c =
  let sample = Netsim.now c.net -. c.sample_sent in
  if c.srtt = 0. then begin
    c.srtt <- sample;
    c.rttvar <- sample /. 2.
  end
  else begin
    c.rttvar <- (0.75 *. c.rttvar) +. (0.25 *. Float.abs (c.srtt -. sample));
    c.srtt <- (0.875 *. c.srtt) +. (0.125 *. sample)
  end;
  c.rto <- Float.max 0.2 (c.srtt +. (4. *. c.rttvar))

let handle_ack c ack =
  if ack > c.snd_una then begin
    let mss = float_of_int c.opts.mss in
    if c.dupacks >= 3 then c.cwnd <- c.ssthresh  (* leave fast recovery *)
    else if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd +. mss
    else
      (* CUBIC-flavoured congestion avoidance: grow a few segments per
         RTT rather than Reno's one, as modern stacks do. *)
      c.cwnd <- c.cwnd +. (4. *. mss *. mss /. c.cwnd);
    c.snd_una <- ack;
    c.dupacks <- 0;
    if c.sample_seq >= 0 && ack >= c.sample_seq then begin
      update_rtt c;
      c.sample_seq <- -1
    end;
    (* Restart the timer from now: re-arming takes a fresh arrival number,
       exactly as scheduling a new timer would. *)
    if c.snd_una < c.snd_nxt then Netsim.arm c.net c.rto_timer c.rto
    else Netsim.cancel c.net c.rto_timer;
    try_send c
  end
  else if ack = c.snd_una && c.snd_una < c.snd_nxt then begin
    c.dupacks <- c.dupacks + 1;
    if c.dupacks = 3 then begin
      (* Fast retransmit. *)
      c.n_fast_rtx <- c.n_fast_rtx + 1;
      (* CUBIC-style multiplicative decrease (beta = 0.7). *)
      c.ssthresh <-
        Float.max (2. *. float_of_int c.opts.mss)
          (float_of_int (c.snd_nxt - c.snd_una) *. 0.7);
      c.cwnd <- c.ssthresh +. (3. *. float_of_int c.opts.mss);
      c.sample_seq <- -1;
      transmit c (packet c ~seq:c.snd_una ~payload:(Int.min c.opts.mss (c.snd_nxt - c.snd_una)))
    end
  end

let rec absorb_ooo c =
  match c.ooo with
  | (s, e) :: rest when s <= c.rcv_nxt ->
      c.rcv_nxt <- Int.max c.rcv_nxt e;
      c.ooo <- rest;
      absorb_ooo c
  | _ -> ()

let insert_ooo c s e =
  let rec insert = function
    | [] -> [ (s, e) ]
    | (s', e') :: rest when e < s' -> (s, e) :: (s', e') :: rest
    | (s', e') :: rest when s > e' -> (s', e') :: insert rest
    | (s', e') :: rest ->
        (* overlap: merge *)
        (Int.min s s', Int.max e e') :: rest
  in
  c.ooo <- insert c.ooo

(* The first unacknowledged segment arms the timer; the second ACKs at
   once, and every pure ACK disarms it. *)
let schedule_delack c =
  c.delack_count <- c.delack_count + 1;
  if c.delack_count >= 2 then send_pure_ack c
  else Netsim.arm c.net c.delack_timer c.opts.delack_timeout

let handle_data c (p : Netsim.packet) =
  let s = p.Netsim.seq and e = p.Netsim.seq + p.Netsim.payload in
  if e <= c.rcv_nxt then
    (* stale duplicate *)
    send_pure_ack c
  else if s > c.rcv_nxt then begin
    insert_ooo c s e;
    send_pure_ack c  (* immediate dup-ACK *)
  end
  else begin
    let before = c.rcv_nxt in
    c.rcv_nxt <- e;
    absorb_ooo c;
    let fresh = c.rcv_nxt - before in
    c.delivered <- c.delivered + fresh;
    if not c.manual_consume then c.consumed <- c.consumed + fresh;
    schedule_delack c;
    c.on_receive fresh
  end

let handle_packet c (p : Netsim.packet) =
  let old_wnd = c.peer_wnd in
  c.peer_wnd <- p.Netsim.wnd;
  handle_ack c p.Netsim.ack;
  if p.Netsim.payload > 0 then handle_data c p;
  (* A window update can unblock a stalled sender. *)
  if c.peer_wnd > old_wnd then try_send c

(* --- endpoints and connection setup --------------------------------- *)

let dispatch ep _net (p : Netsim.packet) =
  let i = p.Netsim.dport - first_port in
  if i >= 0 && i < Array.length ep.conns then
    match ep.conns.(i) with
    | Some c when c.rport = p.Netsim.sport && Ipv4.equal c.remote_ip p.Netsim.src ->
        handle_packet c p
    | Some _ | None -> ()  (* no listener: drop, like a RST-less firewall *)

let attach net node ip =
  let ep = { e_net = net; e_node = node; e_ip = ip; conns = [||];
             next_port = first_port } in
  Netsim.set_handler net node (dispatch ep);
  ep

let fresh_port ep =
  let p = ep.next_port in
  ep.next_port <- ep.next_port + 1;
  p

(* Stands in for a connection's timers until [make_conn] builds the real
   ones, which need the connection they act on. Never armed. *)
let unset_timer = Netsim.timer ignore

let make_conn opts net ~local ~peer ~lport ~rport =
  let c =
    { net; opts;
      local_node = local.e_node; peer_node = peer.e_node;
      local_ip = local.e_ip; remote_ip = peer.e_ip;
      lport; rport;
      snd_una = 0; snd_nxt = 0; backlog = 0;
      cwnd = float_of_int opts.initial_cwnd;
      ssthresh = float_of_int opts.rwnd;
      dupacks = 0; srtt = 0.; rttvar = 0.; rto = 1.0;
      rto_timer = unset_timer;
      sample_seq = -1; sample_sent = 0.;
      rcv_nxt = 0; ooo = []; delack_count = 0; delack_timer = unset_timer;
      delivered = 0; consumed = 0; manual_consume = false;
      peer_wnd = opts.rwnd; on_receive = (fun _ -> ()); n_rto = 0; n_fast_rtx = 0 }
  in
  c.rto_timer <- Netsim.timer (fun _ -> on_rto c);
  c.delack_timer <- Netsim.timer (fun _ -> send_pure_ack c);
  c

let register ep c =
  let i = c.lport - first_port in
  if i >= Array.length ep.conns then begin
    let conns = Array.make (Int.max 4 (2 * (i + 1))) None in
    Array.blit ep.conns 0 conns 0 (Array.length ep.conns);
    ep.conns <- conns
  end;
  ep.conns.(i) <- Some c

let connect ?(options = default_options) ~a ~b () =
  let pa = fresh_port a and pb = fresh_port b in
  let ca = make_conn options a.e_net ~local:a ~peer:b ~lport:pa ~rport:pb in
  let cb = make_conn options b.e_net ~local:b ~peer:a ~lport:pb ~rport:pa in
  register a ca;
  register b cb;
  (ca, cb)

let send c n =
  if n < 0 then invalid_arg "Tcp.send: negative byte count";
  c.backlog <- c.backlog + n;
  try_send c

let set_on_receive c f = c.on_receive <- f
let bytes_delivered c = c.delivered
let bytes_acked c = c.snd_una
let bytes_queued c = c.backlog
let retransmit_stats c = (c.n_rto, c.n_fast_rtx)

let set_manual_consume c flag =
  c.manual_consume <- flag;
  if flag then c.consumed <- Int.min c.consumed c.delivered

let consume c n =
  if n < 0 then invalid_arg "Tcp.consume: negative byte count";
  let before = advertised_window c in
  c.consumed <- Int.min c.delivered (c.consumed + n);
  let after = advertised_window c in
  (* Tell the peer the window reopened (window-update ACK), as real stacks
     do when crossing an MSS boundary or leaving zero-window. *)
  if before < c.opts.mss && after >= c.opts.mss then send_pure_ack c

let receive_backlog c = c.delivered - c.consumed
