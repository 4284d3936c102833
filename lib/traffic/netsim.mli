(** Discrete-event packet-network simulator.

    Hosts are nodes; links are point-to-point with latency, jitter and
    loss. Each directed link can carry a {e tap} — a tcpdump-like observer
    that sees every packet (with its timestamp) crossing the link in that
    direction. Taps are how the paper's four observation points
    (client⇄guard, exit⇄server) are realised.

    {b Per-link queues.} Each directed link keeps its in-flight packets
    itself, in a FIFO ring of (packet, arrival time, arrival number), and
    the event queue ({!Pqueue}) holds one entry per busy link, keyed by its
    head packet and re-armed from the next packet after each delivery. A
    link's arrival times never fall (delivery is in order) and its arrival
    numbers rise, so its head is its least event, and events run in
    exactly the order one queue entry per packet would give them. A
    delivered slot is cleared, so no ring holds on to a dead packet. *)

type node = int

type packet = {
  src : Ipv4.t;
  dst : Ipv4.t;
  sport : int;
  dport : int;
  seq : int;       (** first byte's sequence number *)
  ack : int;       (** cumulative acknowledgement *)
  payload : int;   (** payload length in bytes; 0 = pure ACK *)
  wnd : int;       (** advertised receive window (flow control) *)
  syn : bool;
  fin : bool;
}

type t

val create : rng:Rng.t -> unit -> t
val now : t -> float

val add_node : t -> node
(** Nodes start with no handler; see {!set_handler}. *)

val set_handler : t -> node -> (t -> packet -> unit) -> unit
(** Called on every packet delivered to the node. *)

val link :
  t -> node -> node -> latency:float -> ?jitter:float -> ?loss:float -> unit -> unit
(** Creates a bidirectional link. [latency] is one-way seconds; [jitter]
    adds uniform extra delay in [\[0, jitter\]]; [loss] drops each packet
    independently with that probability (in-order delivery is preserved
    among survivors). @raise Invalid_argument if the link exists, the
    nodes are equal or either is not a node of [t]. *)

val set_tap : t -> from:node -> to_:node -> (t -> packet -> unit) -> unit
(** Installs the observer for the directed link [from → to_]. The tap sees
    packets when they {e enter} the link (before loss), like a tcpdump at
    the sender's edge, and reads the time with {!now}: it is passed the
    simulator rather than the time, so a tapped send allocates no more
    than an untapped one. @raise Invalid_argument if no such link. *)

val send : t -> from:node -> to_:node -> packet -> unit
(** Transmits over the link; @raise Invalid_argument if no such link. *)

val schedule : t -> float -> (t -> unit) -> unit
(** [schedule t delay f] runs [f] after [delay] seconds of simulated time. *)

(** {1 Re-armable timers}

    A timer is one persistent event, for a deadline that is pushed back or
    called off far more often than it fires (a TCP retransmission or
    delayed-ACK timer). Re-arming moves the timer's one queue entry and
    cancelling removes it, so a superseded deadline never reaches the
    event loop.

    Events run in (time, arrival) order, where {!send}, {!schedule} and
    {!arm} each take the next arrival number when called: a timer re-armed
    now is ordered exactly as a fresh {!schedule} call now would be. *)

type timer

val timer : (t -> unit) -> timer
(** [timer f] is a timer that runs [f] when it fires; it starts disarmed
    and may only be armed in one simulator. *)

val arm : t -> timer -> float -> unit
(** [arm t timer delay] sets [timer] to fire after [delay] seconds,
    replacing any pending deadline. *)

val cancel : t -> timer -> unit
(** Disarms the timer; a no-op if it is not armed. *)

val armed : timer -> bool
(** True from {!arm} until the timer fires or is cancelled. *)

val run : ?until:float -> t -> unit
(** Processes events until the queue empties or simulated time exceeds
    [until]. *)
