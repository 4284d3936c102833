(** A byte-counting TCP implementation over {!Netsim}.

    Models exactly the mechanisms the paper's asymmetric traffic analysis
    depends on: sequence numbers and {e cumulative} acknowledgements
    visible in cleartext headers, delayed ACKs (so there is no one-to-one
    packet correspondence between the two directions), slow start and AIMD
    congestion control, a receive-window cap, fast retransmit on three
    duplicate ACKs, and go-back-N on retransmission timeout. Payload bytes
    are counted, not stored.

    One [endpoint] is attached per node; connections between two endpoints
    run over the (single) Netsim link joining their nodes. *)

type endpoint
type conn

val attach : Netsim.t -> Netsim.node -> Ipv4.t -> endpoint
(** Takes ownership of the node's packet handler (replacing any previous
    handler). *)

type options = {
  mss : int;            (** bytes per segment (default 1460) *)
  rwnd : int;           (** receive window cap, bytes (default 131072) *)
  initial_cwnd : int;   (** bytes (default 10 * mss) *)
  delack_timeout : float; (** delayed-ACK timer (default 0.04 s) *)
}

val default_options : options

val connect :
  ?options:options -> a:endpoint -> b:endpoint -> unit -> conn * conn
(** Establishes a connection between the endpoints' nodes (which must be
    directly linked in the Netsim). Returns the two connection halves;
    each can send and receive. Ports are allocated automatically. *)

val send : conn -> int -> unit
(** Queue [n] application bytes for transmission. *)

val set_on_receive : conn -> (int -> unit) -> unit
(** Called with the number of new in-order bytes each time data is
    delivered to the application. *)

val bytes_delivered : conn -> int
(** In-order bytes handed to the application so far. *)

val bytes_acked : conn -> int
(** Own bytes the peer has cumulatively acknowledged. *)

val bytes_queued : conn -> int
(** Application bytes accepted by {!send} but not yet transmitted. *)

val retransmit_stats : conn -> int * int
(** (timeouts taken, fast retransmits taken) — diagnostics. *)

val set_manual_consume : conn -> bool -> unit
(** By default, delivered bytes are consumed immediately and the receive
    window stays open. With manual consumption the application must call
    {!consume}; undrained bytes shrink the advertised window until the
    sender stalls — real receive-side backpressure, which onion relays use
    to couple circuit segments. *)

val consume : conn -> int -> unit
(** Drain bytes from the receive buffer, reopening the advertised window
    (sends a window-update ACK when the window reopens past one MSS).
    @raise Invalid_argument on a negative count. *)

val receive_backlog : conn -> int
(** Delivered-but-unconsumed bytes. Always 0 without manual consumption. *)
