(* Tests for qs_traffic: the event-driven network simulator, TCP, traces,
   and the onion circuit chain. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string

let mk_packet ?(payload = 0) ?(seq = 0) ?(ack = 0) src dst =
  { Netsim.src = ip src; dst = ip dst; sport = 1; dport = 2; seq; ack;
    payload; wnd = 65535; syn = false; fin = false }

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)

(* ---- Netsim ---------------------------------------------------------- *)

let test_netsim_delivery_and_latency () =
  let net = Netsim.create ~rng:(Rng.of_int 1) () in
  let a = Netsim.add_node net and b = Netsim.add_node net in
  Netsim.link net a b ~latency:0.25 ();
  let arrived = ref [] in
  Netsim.set_handler net b (fun net _ -> arrived := Netsim.now net :: !arrived);
  Netsim.send net ~from:a ~to_:b (mk_packet "10.0.0.1" "10.0.0.2");
  Netsim.run net;
  Alcotest.(check (list (float 0.001))) "arrives after latency" [ 0.25 ] !arrived

let test_netsim_fifo_no_reorder () =
  (* heavy jitter must not reorder packets on one link *)
  let net = Netsim.create ~rng:(Rng.of_int 2) () in
  let a = Netsim.add_node net and b = Netsim.add_node net in
  Netsim.link net a b ~latency:0.01 ~jitter:0.5 ();
  let seen = ref [] in
  Netsim.set_handler net b (fun _ p -> seen := p.Netsim.seq :: !seen);
  for i = 1 to 50 do
    Netsim.send net ~from:a ~to_:b (mk_packet ~seq:i "10.0.0.1" "10.0.0.2")
  done;
  Netsim.run net;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1))
    (List.rev !seen)

let test_netsim_loss () =
  let net = Netsim.create ~rng:(Rng.of_int 3) () in
  let a = Netsim.add_node net and b = Netsim.add_node net in
  Netsim.link net a b ~latency:0.001 ~loss:0.5 ();
  let count = ref 0 in
  Netsim.set_handler net b (fun _ _ -> incr count);
  for _ = 1 to 2000 do
    Netsim.send net ~from:a ~to_:b (mk_packet "10.0.0.1" "10.0.0.2")
  done;
  Netsim.run net;
  check_bool "about half lost" true (!count > 800 && !count < 1200)

let test_netsim_tap_sees_everything () =
  (* taps observe before loss, like tcpdump at the sender *)
  let net = Netsim.create ~rng:(Rng.of_int 4) () in
  let a = Netsim.add_node net and b = Netsim.add_node net in
  Netsim.link net a b ~latency:0.001 ~loss:1.0 ();
  let tapped = ref 0 in
  Netsim.set_tap net ~from:a ~to_:b (fun _ _ -> incr tapped);
  for _ = 1 to 10 do
    Netsim.send net ~from:a ~to_:b (mk_packet "10.0.0.1" "10.0.0.2")
  done;
  Netsim.run net;
  check_int "tap sees all despite loss" 10 !tapped

(* A tap is passed the simulator, not a float time, so tapping a link
   adds no allocation to its sends: the time a [Trace] records is read
   and stored unboxed. *)
let test_netsim_tap_allocates_nothing () =
  let words ~tapped =
    let net = Netsim.create ~rng:(Rng.of_int 6) () in
    let a = Netsim.add_node net and b = Netsim.add_node net in
    Netsim.link net a b ~latency:0.001 ~jitter:0.002 ();
    let trace = Trace.create () in
    if tapped then Netsim.set_tap net ~from:a ~to_:b (Trace.observe trace);
    let p = mk_packet "10.0.0.1" "10.0.0.2" in
    let burst n =
      for _ = 1 to n do Netsim.send net ~from:a ~to_:b p done;
      Netsim.run net
    in
    (* Grows the link's ring and the trace's arrays to 2 048 slots, so
       the counted burst below fits without growing either. *)
    burst 1100;
    let before = Gc.minor_words () in
    burst 900;
    let w = Gc.minor_words () -. before in
    check_int "trace length" (if tapped then 2000 else 0) (Trace.length trace);
    w
  in
  let untapped = words ~tapped:false in
  Alcotest.(check (float 0.)) "tapped sends allocate as untapped ones"
    untapped (words ~tapped:true)

let test_netsim_timers () =
  let net = Netsim.create ~rng:(Rng.of_int 5) () in
  let fired = ref [] in
  Netsim.schedule net 1.0 (fun net -> fired := Netsim.now net :: !fired);
  Netsim.schedule net 0.5 (fun net -> fired := Netsim.now net :: !fired);
  Netsim.run net;
  Alcotest.(check (list (float 0.001))) "timer order" [ 1.0; 0.5 ] !fired

let test_netsim_timer_rearm_and_cancel () =
  let net = Netsim.create ~rng:(Rng.of_int 8) () in
  let fired = ref [] in
  let record name net = fired := (name, Netsim.now net) :: !fired in
  let rearmed = Netsim.timer (record "rearmed") in
  let cancelled = Netsim.timer (record "cancelled") in
  Netsim.arm net rearmed 1.0;
  Netsim.arm net cancelled 0.5;
  Netsim.arm net rearmed 2.0;
  Netsim.cancel net cancelled;
  check_bool "cancelled is disarmed" false (Netsim.armed cancelled);
  check_bool "re-armed is armed" true (Netsim.armed rearmed);
  Netsim.run net;
  Alcotest.(check (list (pair string (float 0.))))
    "re-armed fires once, at its last deadline; cancelled never" [ ("rearmed", 2.0) ]
    (List.rev !fired);
  check_bool "fired timer is disarmed" false (Netsim.armed rearmed)

(* Equal deadlines run in arrival order, and a re-arm takes its place in
   that order when it is made, like a fresh [schedule]. *)
let test_netsim_timer_tie_order () =
  let net = Netsim.create ~rng:(Rng.of_int 9) () in
  let fired = ref [] in
  let record name _ = fired := name :: !fired in
  let t = Netsim.timer (record "timer") in
  Netsim.arm net t 1.0;
  Netsim.schedule net 1.0 (record "a");
  Netsim.arm net t 1.0;
  Netsim.schedule net 1.0 (record "b");
  Netsim.run net;
  Alcotest.(check (list string)) "arrival order" [ "a"; "timer"; "b" ] (List.rev !fired)

(* Random programs of schedule / arm / re-arm / cancel against a naive
   event list sorted by (deadline, arrival). Delays come from a small set,
   so equal deadlines are common. A [Mid] event at t = 1 runs a second
   program, so timers are also armed, re-armed and cancelled while the
   simulation runs, including at the deadline of events still queued. *)
type sim_op = Schedule of int | Arm_timer of int * int | Cancel_timer of int

let sim_delays = [| 0.; 0.5; 1.; 1.5 |]
let sim_timers = 3

let sim_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun d -> Schedule d) (int_bound 3));
        (4, map2 (fun k d -> Arm_timer (k, d)) (int_bound (sim_timers - 1)) (int_bound 3));
        (2, map (fun k -> Cancel_timer k) (int_bound (sim_timers - 1))) ])

let sim_op_print = function
  | Schedule d -> Printf.sprintf "schedule %g" sim_delays.(d)
  | Arm_timer (k, d) -> Printf.sprintf "arm t%d %g" k sim_delays.(d)
  | Cancel_timer k -> Printf.sprintf "cancel t%d" k

type sim_label = Scheduled of int | Timer of int | Mid

let prop_netsim_timers_model =
  let program = QCheck.Gen.(list_size (int_bound 25) sim_op_gen) in
  QCheck.Test.make ~name:"timers = sorted-list model (schedule, arm, re-arm, cancel)"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         let p ops = String.concat "; " (List.map sim_op_print ops) in
         Printf.sprintf "at 0: %s | at 1: %s" (p a) (p b))
       (QCheck.Gen.pair program program))
    (fun (phase0, phase1) ->
       (* the simulator *)
       let net = Netsim.create ~rng:(Rng.of_int 1) () in
       let fired = ref [] in
       let record label net = fired := (label, Netsim.now net) :: !fired in
       let timers = Array.init sim_timers (fun k -> Netsim.timer (record (Timer k))) in
       let n_scheduled = ref 0 in
       let apply net = function
         | Schedule d ->
             Netsim.schedule net sim_delays.(d) (record (Scheduled !n_scheduled));
             incr n_scheduled
         | Arm_timer (k, d) -> Netsim.arm net timers.(k) sim_delays.(d)
         | Cancel_timer k -> Netsim.cancel net timers.(k)
       in
       Netsim.schedule net 1.0 (fun net ->
           record Mid net;
           List.iter (apply net) phase1);
       List.iter (apply net) phase0;
       Netsim.run net;
       (* the model: pending (deadline, arrival, label), unordered *)
       let pending = ref [] and arrival = ref 0 and n = ref 0 and out = ref [] in
       let add deadline label =
         pending := (deadline, !arrival, label) :: !pending;
         incr arrival
       in
       let drop label = pending := List.filter (fun (_, _, l) -> l <> label) !pending in
       let model_apply now = function
         | Schedule d ->
             add (now +. sim_delays.(d)) (Scheduled !n);
             incr n
         | Arm_timer (k, d) ->
             drop (Timer k);
             add (now +. sim_delays.(d)) (Timer k)
         | Cancel_timer k -> drop (Timer k)
       in
       add 1.0 Mid;
       List.iter (model_apply 0.) phase0;
       let rec loop () =
         match List.sort compare !pending with
         | [] -> ()
         | ((deadline, _, label) as top) :: _ ->
             pending := List.filter (fun e -> e <> top) !pending;
             out := (label, deadline) :: !out;
             if label = Mid then List.iter (model_apply deadline) phase1;
             loop ()
       in
       loop ();
       !fired = !out && Array.for_all (fun t -> not (Netsim.armed t)) timers)

(* Packets and timers against one naive event list. Every link has the
   same latency and no jitter, so deliveries tie with each other and with
   timers; one link loses every packet. A delivered packet with a bounce
   count above zero is sent straight back with one bounce fewer, so links
   are also fed while the simulation runs, as is the [Mid] event's
   second program at t = 1. The model keeps every pending delivery and
   timer as (time, arrival number, event) in one list, where a send takes
   a number only if its packet survives, and pops the least. *)
type tie_op =
  | Tie_send of int * int  (* directed link, bounce count *)
  | Tie_schedule of int
  | Tie_arm of int * int
  | Tie_cancel of int

(* (a, b, loss): links are bidirectional, and 0 <-> 2 loses everything. *)
let tie_links = [| (0, 1, 0.); (1, 2, 0.); (0, 2, 1.) |]
let tie_dirs = [| (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) |]
let tie_latency = 0.5

let tie_loss a b =
  let l = ref 0. in
  Array.iter (fun (x, y, loss) -> if (x = a && y = b) || (x = b && y = a) then l := loss)
    tie_links;
  !l

let tie_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun d b -> Tie_send (d, b)) (int_bound 5) (int_bound 2));
        (2, map (fun d -> Tie_schedule d) (int_bound 3));
        (3, map2 (fun k d -> Tie_arm (k, d)) (int_bound (sim_timers - 1)) (int_bound 3));
        (1, map (fun k -> Tie_cancel k) (int_bound (sim_timers - 1))) ])

let tie_op_print = function
  | Tie_send (d, b) ->
      let a, c = tie_dirs.(d) in
      Printf.sprintf "send %d->%d bounce %d" a c b
  | Tie_schedule d -> Printf.sprintf "schedule %g" sim_delays.(d)
  | Tie_arm (k, d) -> Printf.sprintf "arm t%d %g" k sim_delays.(d)
  | Tie_cancel k -> Printf.sprintf "cancel t%d" k

type tie_label = Packet of int | Tie_scheduled of int | Tie_timer of int | Tie_mid

(* A pending model event: what it logs, and for a packet what it does. *)
type tie_event = { label : tie_label; hop : (int * int * int) option (* from, to, bounces *) }

let prop_netsim_ties_model =
  let program = QCheck.Gen.(list_size (int_bound 20) tie_op_gen) in
  QCheck.Test.make ~name:"link ties = one sorted event list (send, schedule, arm)"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         let p ops = String.concat "; " (List.map tie_op_print ops) in
         Printf.sprintf "at 0: %s | at 1: %s" (p a) (p b))
       (QCheck.Gen.pair program program))
    (fun (phase0, phase1) ->
       (* the simulator *)
       let net = Netsim.create ~rng:(Rng.of_int 1) () in
       let nodes = Array.init 3 (fun _ -> Netsim.add_node net) in
       Array.iter
         (fun (a, b, loss) -> Netsim.link net nodes.(a) nodes.(b) ~latency:tie_latency ~loss ())
         tie_links;
       let fired = ref [] in
       let record label net = fired := (label, Netsim.now net) :: !fired in
       let timers = Array.init sim_timers (fun k -> Netsim.timer (record (Tie_timer k))) in
       let n_packets = ref 0 and n_scheduled = ref 0 in
       let send net a b bounces =
         let p =
           { (mk_packet "10.0.0.1" "10.0.0.2") with
             Netsim.sport = a; dport = b; seq = !n_packets; payload = bounces }
         in
         incr n_packets;
         Netsim.send net ~from:nodes.(a) ~to_:nodes.(b) p
       in
       Array.iteri
         (fun v node ->
            Netsim.set_handler net node (fun net p ->
                record (Packet p.Netsim.seq) net;
                if p.Netsim.payload > 0 then send net v p.Netsim.sport (p.Netsim.payload - 1)))
         nodes;
       let apply net = function
         | Tie_send (d, b) ->
             let a, c = tie_dirs.(d) in
             send net a c b
         | Tie_schedule d ->
             Netsim.schedule net sim_delays.(d) (record (Tie_scheduled !n_scheduled));
             incr n_scheduled
         | Tie_arm (k, d) -> Netsim.arm net timers.(k) sim_delays.(d)
         | Tie_cancel k -> Netsim.cancel net timers.(k)
       in
       Netsim.schedule net 1.0 (fun net ->
           record Tie_mid net;
           List.iter (apply net) phase1);
       List.iter (apply net) phase0;
       Netsim.run net;
       (* the model *)
       let pending = ref [] and arrival = ref 0 and out = ref [] in
       let n_packets = ref 0 and n_scheduled = ref 0 in
       let last = Hashtbl.create 8 in
       let add time ev =
         pending := (time, !arrival, ev) :: !pending;
         incr arrival
       in
       let model_send now a b bounces =
         let id = !n_packets in
         incr n_packets;
         if tie_loss a b < 1. then begin
           let prev = Option.value (Hashtbl.find_opt last (a, b)) ~default:0. in
           let time = Float.max (now +. tie_latency) prev in
           Hashtbl.replace last (a, b) time;
           add time { label = Packet id; hop = Some (a, b, bounces) }
         end
       in
       let drop label = pending := List.filter (fun (_, _, e) -> e.label <> label) !pending in
       let model_apply now = function
         | Tie_send (d, b) ->
             let a, c = tie_dirs.(d) in
             model_send now a c b
         | Tie_schedule d ->
             add (now +. sim_delays.(d)) { label = Tie_scheduled !n_scheduled; hop = None };
             incr n_scheduled
         | Tie_arm (k, d) ->
             drop (Tie_timer k);
             add (now +. sim_delays.(d)) { label = Tie_timer k; hop = None }
         | Tie_cancel k -> drop (Tie_timer k)
       in
       add 1.0 { label = Tie_mid; hop = None };
       List.iter (model_apply 0.) phase0;
       let rec loop () =
         match List.sort compare !pending with
         | [] -> ()
         | ((time, _, ev) as top) :: _ ->
             pending := List.filter (fun e -> e != top) !pending;
             out := (ev.label, time) :: !out;
             (match ev.hop with
              | Some (a, b, bounces) when bounces > 0 -> model_send time b a (bounces - 1)
              | Some _ | None -> ());
             if ev.label = Tie_mid then List.iter (model_apply time) phase1;
             loop ()
       in
       loop ();
       !fired = !out && Array.for_all (fun t -> not (Netsim.armed t)) timers)

let test_netsim_run_until () =
  let net = Netsim.create ~rng:(Rng.of_int 6) () in
  let fired = ref 0 in
  Netsim.schedule net 1.0 (fun _ -> incr fired);
  Netsim.schedule net 5.0 (fun _ -> incr fired);
  Netsim.run ~until:2.0 net;
  check_int "only early timer" 1 !fired

let test_netsim_rejects () =
  let net = Netsim.create ~rng:(Rng.of_int 7) () in
  let a = Netsim.add_node net in
  let b = Netsim.add_node net in
  check_bool "self link rejected" true
    (try Netsim.link net a a ~latency:0.1 (); false
     with Invalid_argument _ -> true);
  check_bool "send without link rejected" true
    (try Netsim.send net ~from:a ~to_:b (mk_packet "10.0.0.1" "10.0.0.2"); false
     with Invalid_argument _ -> true)

(* ---- Tcp ------------------------------------------------------------- *)

let tcp_pair ?(latency = 0.02) ?(jitter = 0.) ?(loss = 0.) ?(options = Tcp.default_options)
    seed =
  let net = Netsim.create ~rng:(Rng.of_int seed) () in
  let a = Netsim.add_node net and b = Netsim.add_node net in
  Netsim.link net a b ~latency ~jitter ~loss ();
  let ea = Tcp.attach net a (ip "10.0.0.1") in
  let eb = Tcp.attach net b (ip "10.0.0.2") in
  let ca, cb = Tcp.connect ~options ~a:ea ~b:eb () in
  (net, ca, cb)

let test_tcp_delivers_exact_bytes () =
  let net, ca, cb = tcp_pair 1 in
  Tcp.send ca 1_000_000;
  Netsim.run ~until:60. net;
  check_int "all bytes delivered" 1_000_000 (Tcp.bytes_delivered cb);
  check_int "all bytes acked" 1_000_000 (Tcp.bytes_acked ca);
  check_int "backlog drained" 0 (Tcp.bytes_queued ca)

let test_tcp_bidirectional () =
  let net, ca, cb = tcp_pair 2 in
  Tcp.send ca 50_000;
  Tcp.send cb 70_000;
  Netsim.run ~until:60. net;
  check_int "a->b" 50_000 (Tcp.bytes_delivered cb);
  check_int "b->a" 70_000 (Tcp.bytes_delivered ca)

let test_tcp_survives_loss () =
  let net, ca, cb = tcp_pair ~loss:0.02 ~jitter:0.005 3 in
  Tcp.send ca 500_000;
  Netsim.run ~until:300. net;
  check_int "loss recovered" 500_000 (Tcp.bytes_delivered cb);
  let rto, frtx = Tcp.retransmit_stats ca in
  check_bool "retransmissions happened" true (rto + frtx > 0)

let test_tcp_acks_cumulative_monotone () =
  let net = Netsim.create ~rng:(Rng.of_int 4) () in
  let a = Netsim.add_node net and b = Netsim.add_node net in
  Netsim.link net a b ~latency:0.02 ~loss:0.01 ();
  let ea = Tcp.attach net a (ip "10.0.0.1") in
  let eb = Tcp.attach net b (ip "10.0.0.2") in
  let ca, cb = Tcp.connect ~a:ea ~b:eb () in
  (* observe the ack stream b -> a *)
  let last_ack = ref 0 and monotone = ref true in
  Netsim.set_tap net ~from:b ~to_:a (fun _ p ->
      if p.Netsim.ack < !last_ack then monotone := false;
      last_ack := max !last_ack p.Netsim.ack);
  Tcp.send ca 300_000;
  Netsim.run ~until:120. net;
  check_bool "cumulative acks never regress" true !monotone;
  check_int "final ack covers everything" 300_000 !last_ack;
  check_int "delivered" 300_000 (Tcp.bytes_delivered cb)

let test_tcp_respects_rwnd () =
  let options = { Tcp.default_options with Tcp.rwnd = 20_000 } in
  let net = Netsim.create ~rng:(Rng.of_int 5) () in
  let a = Netsim.add_node net and b = Netsim.add_node net in
  Netsim.link net a b ~latency:0.05 ();
  let ea = Tcp.attach net a (ip "10.0.0.1") in
  let eb = Tcp.attach net b (ip "10.0.0.2") in
  let ca, cb = Tcp.connect ~options ~a:ea ~b:eb () in
  let in_flight_max = ref 0 in
  Netsim.set_tap net ~from:a ~to_:b (fun _ p ->
      let flight = p.Netsim.seq + p.Netsim.payload - Tcp.bytes_acked ca in
      if flight > !in_flight_max then in_flight_max := flight);
  Tcp.send ca 200_000;
  Netsim.run ~until:120. net;
  check_int "delivered" 200_000 (Tcp.bytes_delivered cb);
  check_bool "window respected" true (!in_flight_max <= 20_000)

let test_tcp_on_receive_counts () =
  let net, ca, cb = tcp_pair 6 in
  let received = ref 0 in
  Tcp.set_on_receive cb (fun n -> received := !received + n);
  Tcp.send ca 123_456;
  Netsim.run ~until:60. net;
  check_int "callback sums to total" 123_456 !received

let test_tcp_flow_control_stalls () =
  (* a receiver that never consumes must stall the sender near rwnd *)
  let options = { Tcp.default_options with Tcp.rwnd = 30_000 } in
  let net, ca, cb = tcp_pair ~options 7 in
  Tcp.set_manual_consume cb true;
  Tcp.send ca 500_000;
  Netsim.run ~until:30. net;
  check_bool "sender stalled around rwnd" true
    (Tcp.bytes_delivered cb <= 30_000 + 1460);
  check_int "backlog retained" (Tcp.bytes_delivered cb) (Tcp.receive_backlog cb);
  (* consuming reopens the window and the transfer finishes *)
  let rec drain net =
    let n = Tcp.receive_backlog cb in
    if n > 0 then Tcp.consume cb n;
    if Tcp.bytes_delivered cb < 500_000 then Netsim.schedule net 0.05 drain
  in
  drain net;
  Netsim.run ~until:120. net;
  check_int "completes after consume" 500_000 (Tcp.bytes_delivered cb)

let test_tcp_consume_rejects_negative () =
  let _, _, cb = tcp_pair 8 in
  check_bool "negative consume rejected" true
    (try Tcp.consume cb (-1); false with Invalid_argument _ -> true)

(* ---- Trace ----------------------------------------------------------- *)

let test_trace_series () =
  let t = Trace.create () in
  let p payload ack = { (mk_packet "10.0.0.1" "10.0.0.2") with Netsim.payload; ack } in
  Trace.tap t 0.1 (p 1000 0);
  Trace.tap t 0.9 (p 500 0);
  Trace.tap t 1.5 (p 2000 0);
  let sent = Trace.bytes_sent_series t ~bin:1.0 ~duration:2.0 in
  Alcotest.(check (array (float 0.01))) "sent bins" [| 1500.; 2000. |] sent;
  check_int "total payload" 3500 (Trace.total_payload t);
  (* cumulative acks: only increments count *)
  let t2 = Trace.create () in
  Trace.tap t2 0.2 (p 0 1000);
  Trace.tap t2 0.4 (p 0 800);   (* reordered ack: no new bytes *)
  Trace.tap t2 1.2 (p 0 4000);
  let acked = Trace.bytes_acked_series t2 ~bin:1.0 ~duration:2.0 in
  Alcotest.(check (array (float 0.01))) "acked bins" [| 1000.; 3000. |] acked;
  check_int "max ack" 4000 (Trace.max_ack t2);
  let cum = Trace.cumulative acked in
  Alcotest.(check (array (float 0.01))) "cumulative" [| 1000.; 4000. |] cum

let test_trace_rejects () =
  let t = Trace.create () in
  check_bool "bad bin rejected" true
    (try ignore (Trace.bytes_sent_series t ~bin:0. ~duration:1.); false
     with Invalid_argument _ -> true)

(* ---- Onion ----------------------------------------------------------- *)

let mb = 1024 * 1024

let test_onion_download_completes () =
  let r = Onion.download ~rng:(Rng.of_int 1) ~size:(2 * mb) () in
  check_bool "completed" true r.Onion.completed;
  check_bool "client received at least the payload" true
    (r.Onion.client_received >= 2 * mb);
  check_bool "finished in sane time" true
    (r.Onion.finish_time > 0.5 && r.Onion.finish_time < 120.)

let test_onion_four_segments_consistent () =
  let r = Onion.download ~rng:(Rng.of_int 2) ~size:(2 * mb) () in
  let data_down = Trace.total_payload r.Onion.server_to_exit in
  let acked_up = Trace.max_ack r.Onion.exit_to_server in
  let data_client = Trace.total_payload r.Onion.guard_to_client in
  let acked_client = Trace.max_ack r.Onion.client_to_guard in
  (* server-side bytes (raw) vs client-side bytes (cell-packed): within
     ~6% of each other, and acks track data on each side *)
  check_bool "server data ~ acked" true
    (Float.abs (float_of_int (data_down - acked_up)) /. float_of_int acked_up < 0.05);
  check_bool "client data ~ acked" true
    (Float.abs (float_of_int (data_client - acked_client))
     /. float_of_int acked_client < 0.05);
  let ratio = float_of_int data_client /. float_of_int data_down in
  check_bool "cell overhead ~ 514/498" true (ratio > 1.0 && ratio < 1.1)

let test_onion_upload () =
  let r = Onion.upload ~rng:(Rng.of_int 3) ~size:(1 * mb) () in
  check_bool "completed" true r.Onion.completed;
  (* in an upload the client->guard direction carries the data *)
  check_bool "upstream carries data" true
    (Trace.total_payload r.Onion.client_to_guard
     > Trace.total_payload r.Onion.guard_to_client)

let test_onion_rejects () =
  check_bool "size 0 rejected" true
    (try ignore (Onion.download ~rng:(Rng.of_int 4) ~size:0 ()); false
     with Invalid_argument _ -> true)

let test_onion_bursty_download () =
  let r =
    Onion.download ~rng:(Rng.of_int 9) ~burst:(200 * 1024, 1.0)
      ~size:(2 * mb) ()
  in
  check_bool "bursty download completes" true r.Onion.completed;
  (* the burst gaps must show in the trace: some near-idle 100ms bins *)
  let series =
    Trace.bytes_sent_series r.Onion.server_to_exit ~bin:0.1
      ~duration:r.Onion.finish_time
  in
  let idle = Array.fold_left (fun acc b -> if b < 1460. then acc + 1 else acc) 0 series in
  check_bool "transfer has idle gaps" true (idle > 2)

let test_onion_start_delay () =
  let r = Onion.download ~rng:(Rng.of_int 10) ~start_delay:2.0 ~size:mb () in
  check_bool "completes" true r.Onion.completed;
  (match Trace.observations r.Onion.client_to_guard with
   | first :: _ -> check_bool "nothing before the delay" true (first.Trace.time >= 2.0)
   | [] -> Alcotest.fail "no observations")

let test_onion_deterministic () =
  let run () =
    let r = Onion.download ~rng:(Rng.of_int 5) ~size:mb () in
    (r.Onion.finish_time, r.Onion.client_received)
  in
  check_bool "same seed same transfer" true (run () = run ())

let prop_tcp_byte_conservation =
  QCheck.Test.make ~name:"tcp conserves bytes under loss" ~count:10
    QCheck.(pair (int_bound 1000) (int_range 1 400))
    (fun (seed, kb) ->
       let size = kb * 1024 in
       let net, ca, cb = tcp_pair ~loss:0.01 ~jitter:0.002 (seed + 100) in
       Tcp.send ca size;
       Netsim.run ~until:600. net;
       Tcp.bytes_delivered cb = size && Tcp.bytes_acked ca = size)

(* ---- Golden -------------------------------------------------------- *)

(* The simulator's exact output for one seed on a lossy profile, so a
   rework of the event queue, the timers or the RNG that moves a single
   packet time fails here. Loss is high enough that both RTOs and fast
   retransmits fire. Times are compared in hex ([%h]), so the digest
   pins every bit. *)

let lossy_link = { Onion.latency = 0.02; jitter = 0.004; loss = 0.01 }

let lossy_profile =
  { Onion.default_profile with
    Onion.client_guard = lossy_link; guard_middle = lossy_link;
    middle_exit = lossy_link; exit_server = lossy_link }

let trace_digest (r : Onion.result) =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun t ->
       List.iter
         (fun (o : Trace.obs) ->
            Printf.bprintf b "%h %d %d %d\n" o.Trace.time o.Trace.seq o.Trace.ack
              o.Trace.payload)
         (Trace.observations t);
       Buffer.add_string b "--\n")
    [ r.Onion.guard_to_client; r.Onion.client_to_guard; r.Onion.server_to_exit;
      r.Onion.exit_to_server ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_onion () =
  let r =
    Onion.download ~rng:(Rng.of_int 20141) ~profile:lossy_profile
      ~start_delay:0.5 ~burst:(300 * 1024, 2.5) ~size:mb ()
  in
  Alcotest.(check string) "four traces" "f927f44496a53d24af7f5e2affa599ec"
    (trace_digest r);
  Alcotest.(check string) "finish_time" "0x1.68p+3"
    (Printf.sprintf "%h" r.Onion.finish_time);
  check_int "client_received" 1082265 r.Onion.client_received

let test_golden_tcp_retransmits () =
  let net, ca, cb = tcp_pair ~loss:0.08 ~jitter:0.005 11 in
  Tcp.send ca 400_000;
  Tcp.send cb 100_000;
  Netsim.run ~until:300. net;
  check_int "a->b delivered" 400_000 (Tcp.bytes_delivered cb);
  check_int "b->a delivered" 100_000 (Tcp.bytes_delivered ca);
  Alcotest.(check (pair int int)) "a: (rto, fast rtx)" (7, 27) (Tcp.retransmit_stats ca);
  Alcotest.(check (pair int int)) "b: (rto, fast rtx)" (1, 11) (Tcp.retransmit_stats cb)

let test_golden_deanonymize () =
  let m = Asymmetric.deanonymize ~rng:(Rng.of_int 2014) () in
  check_int "correct" 6 m.Asymmetric.correct;
  Alcotest.(check string) "mean_margin" "0.36385643068893714"
    (Printf.sprintf "%.17g" m.Asymmetric.mean_margin)

let () =
  Alcotest.run "qs_traffic"
    [ ("netsim",
       [ Alcotest.test_case "delivery and latency" `Quick test_netsim_delivery_and_latency;
         Alcotest.test_case "fifo no reorder" `Quick test_netsim_fifo_no_reorder;
         Alcotest.test_case "loss" `Quick test_netsim_loss;
         Alcotest.test_case "tap before loss" `Quick test_netsim_tap_sees_everything;
         Alcotest.test_case "tap allocates nothing" `Quick
           test_netsim_tap_allocates_nothing;
         Alcotest.test_case "timers" `Quick test_netsim_timers;
         Alcotest.test_case "timer re-arm and cancel" `Quick
           test_netsim_timer_rearm_and_cancel;
         Alcotest.test_case "timer tie order" `Quick test_netsim_timer_tie_order;
         Alcotest.test_case "run until" `Quick test_netsim_run_until;
         Alcotest.test_case "rejects" `Quick test_netsim_rejects ]
       @ qsuite [ prop_netsim_timers_model; prop_netsim_ties_model ]);
      ("tcp",
       [ Alcotest.test_case "delivers exact bytes" `Quick test_tcp_delivers_exact_bytes;
         Alcotest.test_case "bidirectional" `Quick test_tcp_bidirectional;
         Alcotest.test_case "survives loss" `Quick test_tcp_survives_loss;
         Alcotest.test_case "acks cumulative monotone" `Quick
           test_tcp_acks_cumulative_monotone;
         Alcotest.test_case "respects rwnd" `Quick test_tcp_respects_rwnd;
         Alcotest.test_case "on_receive counts" `Quick test_tcp_on_receive_counts;
         Alcotest.test_case "flow control stalls and resumes" `Quick
           test_tcp_flow_control_stalls;
         Alcotest.test_case "consume validation" `Quick
           test_tcp_consume_rejects_negative ]
       @ qsuite [ prop_tcp_byte_conservation ]);
      ("trace",
       [ Alcotest.test_case "series" `Quick test_trace_series;
         Alcotest.test_case "rejects" `Quick test_trace_rejects ]);
      ("onion",
       [ Alcotest.test_case "download completes" `Quick test_onion_download_completes;
         Alcotest.test_case "four segments consistent" `Quick
           test_onion_four_segments_consistent;
         Alcotest.test_case "upload" `Quick test_onion_upload;
         Alcotest.test_case "rejects size 0" `Quick test_onion_rejects;
         Alcotest.test_case "bursty download" `Quick test_onion_bursty_download;
         Alcotest.test_case "start delay" `Quick test_onion_start_delay;
         Alcotest.test_case "deterministic" `Quick test_onion_deterministic ]);
      ("golden",
       [ Alcotest.test_case "lossy bursty download" `Quick test_golden_onion;
         Alcotest.test_case "lossy tcp retransmits" `Quick test_golden_tcp_retransmits;
         Alcotest.test_case "deanonymize" `Quick test_golden_deanonymize ]) ]
