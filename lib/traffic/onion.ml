type link_profile = {
  latency : float;
  jitter : float;
  loss : float;
}

type profile = {
  client_guard : link_profile;
  guard_middle : link_profile;
  middle_exit : link_profile;
  exit_server : link_profile;
  tcp : Tcp.options;
}

let default_profile =
  { client_guard = { latency = 0.030; jitter = 0.004; loss = 0.0005 };
    guard_middle = { latency = 0.045; jitter = 0.005; loss = 0.0005 };
    middle_exit = { latency = 0.040; jitter = 0.005; loss = 0.0005 };
    exit_server = { latency = 0.035; jitter = 0.004; loss = 0.0005 };
    tcp = { Tcp.default_options with Tcp.rwnd = 327680 } }

type result = {
  guard_to_client : Trace.t;
  client_to_guard : Trace.t;
  server_to_exit : Trace.t;
  exit_to_server : Trace.t;
  completed : bool;
  finish_time : float;
  client_received : int;
}

let cell_size = 514.
let cell_payload = 498.

(* Integer byte-stream scaler with a float remainder, so repeated calls
   neither lose nor invent bytes beyond one cell's worth. *)
let make_scaler ratio =
  let acc = ref 0. in
  fun n ->
    acc := !acc +. (float_of_int n *. ratio);
    let out = int_of_float (Float.floor !acc) in
    acc := !acc -. float_of_int out;
    out

(* Tor enforces circuit-level flow control (package/deliver windows), so a
   relay cannot buffer unboundedly: it forwards onward only while the next
   hop's send queue is small. We model that with a per-direction pump: bytes
   land in the pump's buffer and drain into the downstream connection while
   its backlog is under [window]. This is what keeps the four segments'
   timing coupled end to end (and timing analysis effective). *)
type pump = {
  p_net : Netsim.t;
  p_from : Tcp.conn;    (* upstream conn we consume from (manual mode) *)
  p_to : Tcp.conn;      (* downstream conn we write into *)
  p_scale : int -> int;
  mutable p_ticking : bool;
}

let pump_window = 196608
let pump_interval = 0.02

let rec pump_drain pump =
  let backlog = Tcp.receive_backlog pump.p_from in
  let room = pump_window - Tcp.bytes_queued pump.p_to in
  if room > 0 && backlog > 0 then begin
    let burst = Int.min room backlog in
    Tcp.consume pump.p_from burst;
    let scaled = pump.p_scale burst in
    if scaled > 0 then Tcp.send pump.p_to scaled
  end;
  if Tcp.receive_backlog pump.p_from > 0 && not pump.p_ticking then begin
    pump.p_ticking <- true;
    Netsim.schedule pump.p_net pump_interval (fun _ ->
        pump.p_ticking <- false;
        pump_drain pump)
  end

let make_pump net from_conn to_conn scale =
  Tcp.set_manual_consume from_conn true;
  { p_net = net; p_from = from_conn; p_to = to_conn; p_scale = scale;
    p_ticking = false }

type setup = {
  net : Netsim.t;
  client_conn : Tcp.conn;      (* client's half of client<->guard *)
  server_conn : Tcp.conn;      (* server's half of exit<->server *)
  traces : Trace.t * Trace.t * Trace.t * Trace.t;
      (* guard->client, client->guard, server->exit, exit->server *)
}

let build ~rng profile =
  let net = Netsim.create ~rng () in
  let client = Netsim.add_node net in
  let guard = Netsim.add_node net in
  let middle = Netsim.add_node net in
  let exit = Netsim.add_node net in
  let server = Netsim.add_node net in
  let ip i = Ipv4.of_octets 10 9 0 (i + 1) in
  let add_link a b (p : link_profile) =
    Netsim.link net a b ~latency:p.latency ~jitter:p.jitter ~loss:p.loss ()
  in
  add_link client guard profile.client_guard;
  add_link guard middle profile.guard_middle;
  add_link middle exit profile.middle_exit;
  add_link exit server profile.exit_server;
  let g2c = Trace.create () and c2g = Trace.create () in
  let s2e = Trace.create () and e2s = Trace.create () in
  Netsim.set_tap net ~from:guard ~to_:client (Trace.observe g2c);
  Netsim.set_tap net ~from:client ~to_:guard (Trace.observe c2g);
  Netsim.set_tap net ~from:server ~to_:exit (Trace.observe s2e);
  Netsim.set_tap net ~from:exit ~to_:server (Trace.observe e2s);
  let ep_client = Tcp.attach net client (ip 0) in
  let ep_guard = Tcp.attach net guard (ip 1) in
  let ep_middle = Tcp.attach net middle (ip 2) in
  let ep_exit = Tcp.attach net exit (ip 3) in
  let ep_server = Tcp.attach net server (ip 4) in
  let options = profile.tcp in
  let c_cg, c_gc = Tcp.connect ~options ~a:ep_client ~b:ep_guard () in
  let c_gm, c_mg = Tcp.connect ~options ~a:ep_guard ~b:ep_middle () in
  let c_me, c_em = Tcp.connect ~options ~a:ep_middle ~b:ep_exit () in
  let c_es, c_se = Tcp.connect ~options ~a:ep_exit ~b:ep_server () in
  (* Relay plumbing. Guard and middle shuffle cells unchanged; the exit
     packs raw server bytes into cells downstream and unpacks upstream. *)
  let pass = (fun n -> n) in
  let wire recv_conn send_conn scale =
    let pump = make_pump net recv_conn send_conn scale in
    Tcp.set_on_receive recv_conn (fun _ -> pump_drain pump)
  in
  wire c_gc c_gm pass;                                  (* guard: up   *)
  wire c_gm c_gc pass;                                  (* guard: down *)
  wire c_mg c_me pass;                                  (* middle: up   *)
  wire c_me c_mg pass;                                  (* middle: down *)
  wire c_em c_es (make_scaler (cell_payload /. cell_size));  (* exit: up *)
  wire c_es c_em (make_scaler (cell_size /. cell_payload));  (* exit: down *)
  { net;
    client_conn = c_cg;
    server_conn = c_se;
    traces = (g2c, c2g, s2e, e2s) }

let finish setup ~completed ~finish_time =
  let g2c, c2g, s2e, e2s = setup.traces in
  { guard_to_client = g2c; client_to_guard = c2g;
    server_to_exit = s2e; exit_to_server = e2s;
    completed; finish_time;
    client_received = Tcp.bytes_delivered setup.client_conn }

let download ~rng ?(profile = default_profile) ?(until = 600.) ?start_delay
    ?burst ~size () =
  if size <= 0 then invalid_arg "Onion.download: size must be positive";
  let setup = build ~rng profile in
  (* The client's request (a small HTTP GET) rides up the circuit; the
     server answers with the file. *)
  let request = 200 in
  let finish_time = ref 0. in
  let expected = ref max_int in
  let started = ref false in
  let serve () =
    match burst with
    | None -> Tcp.send setup.server_conn size
    | Some (mean_burst, mean_gap) ->
        (* Bursty application: the server emits the payload in
           exponentially-sized chunks separated by think-time gaps (what
           rate-limited or chunked HTTP looks like). Gives each flow a
           distinctive on/off timing signature. *)
        let remaining = ref size in
        let rec burst_loop net =
          if !remaining > 0 then begin
            let chunk =
              Int.min !remaining
                (Int.max 1024 (int_of_float (Rng.exponential rng (1. /. float_of_int mean_burst))))
            in
            remaining := !remaining - chunk;
            Tcp.send setup.server_conn chunk;
            if !remaining > 0 then
              Netsim.schedule net (Rng.exponential rng (1. /. mean_gap)) burst_loop
          end
        in
        burst_loop setup.net
  in
  Tcp.set_on_receive setup.server_conn
    (fun _ ->
       if not !started then begin
         started := true;
         serve ()
       end);
  (* Completion: the client has received the cell-packed payload. The
     packing ratio is applied once, at the exit. *)
  let packed = int_of_float (Float.floor (float_of_int size *. cell_size /. cell_payload)) in
  expected := packed - 600 (* tolerate one unfilled cell per hop buffer *);
  let probe = ref (fun () -> ()) in
  (probe := fun () ->
     if Tcp.bytes_delivered setup.client_conn >= !expected && !finish_time = 0. then
       finish_time := Netsim.now setup.net
     else Netsim.schedule setup.net 0.25 (fun _ -> !probe ()));
  Netsim.schedule setup.net 0.25 (fun _ -> !probe ());
  (match start_delay with
   | Some d -> Netsim.schedule setup.net d (fun _ -> Tcp.send setup.client_conn request)
   | None -> Tcp.send setup.client_conn request);
  Netsim.run ~until setup.net;
  let completed = Tcp.bytes_delivered setup.client_conn >= !expected in
  finish setup ~completed
    ~finish_time:(if !finish_time > 0. then !finish_time else Netsim.now setup.net)

let upload ~rng ?(profile = default_profile) ?(until = 600.) ~size () =
  if size <= 0 then invalid_arg "Onion.upload: size must be positive";
  let setup = build ~rng profile in
  (* The client sends cells; the exit unpacks them for the server. *)
  let packed = int_of_float (Float.ceil (float_of_int size *. cell_size /. cell_payload)) in
  let expected = size - 600 in
  let finish_time = ref 0. in
  let probe = ref (fun () -> ()) in
  (probe := fun () ->
     if Tcp.bytes_delivered setup.server_conn >= expected && !finish_time = 0. then
       finish_time := Netsim.now setup.net
     else Netsim.schedule setup.net 0.25 (fun _ -> !probe ()));
  Netsim.schedule setup.net 0.25 (fun _ -> !probe ());
  Tcp.send setup.client_conn packed;
  Netsim.run ~until setup.net;
  let completed = Tcp.bytes_delivered setup.server_conn >= expected in
  finish setup ~completed
    ~finish_time:(if !finish_time > 0. then !finish_time else Netsim.now setup.net)
