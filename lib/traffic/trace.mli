(** tcpdump-like packet traces collected at {!Netsim} taps.

    A trace records headers only (timestamp, sequence, cumulative ACK,
    payload length) — exactly what an on-path AS sees of SSL/TLS traffic,
    since TCP headers are not encrypted (§3.3).

    Storage is flat: one growable unboxed array per field (times in a
    [Float.Array], sequence, ACK and payload as ints), so a tap writes
    four slots and allocates only when the arrays double. {!observations}
    builds its list on demand. *)

type obs = {
  time : float;
  seq : int;
  ack : int;
  payload : int;
}

type t

val create : unit -> t

val tap : t -> float -> Netsim.packet -> unit
(** [tap t time p] records [p] as seen at [time]. *)

val observe : t -> Netsim.t -> Netsim.packet -> unit
(** Records a packet at the simulator's current time, allocating nothing
    until the arrays double. Use as a {!Netsim.set_tap} observer:
    [Netsim.set_tap net ~from ~to_ (Trace.observe trace)]. *)

val observations : t -> obs list
(** In capture order (time-sorted by construction); a fresh list on every
    call. *)

val length : t -> int

val total_payload : t -> int
(** Sum of payload bytes seen — "bytes sent" on this segment-direction. *)

val max_ack : t -> int
(** Highest cumulative ACK seen — "bytes acknowledged". *)

val bytes_sent_series : t -> bin:float -> duration:float -> float array
(** [bytes_sent_series t ~bin ~duration] sums payload bytes per time bin:
    the data curves of Figure 2 (right). *)

val bytes_acked_series : t -> bin:float -> duration:float -> float array
(** Per-bin {e newly} acknowledged bytes, computed from the cumulative ACK
    field (the increment of the running maximum per bin): the ACK curves
    of Figure 2 (right). This is where cumulative acking matters — there
    is no per-packet correspondence with the data direction. *)

val cumulative : float array -> float array
(** Running sum, for plotting MB-over-time curves. *)
