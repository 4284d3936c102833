type obs = {
  time : float;
  seq : int;
  ack : int;
  payload : int;
}

(* Taps in capture order, one growable unboxed array per field: a tap
   writes four slots and allocates nothing until the arrays double. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable acks : int array;
  mutable payloads : int array;
  mutable n : int;
}

let create () =
  { times = Float.Array.create 0; seqs = [||]; acks = [||]; payloads = [||]; n = 0 }

let grow t =
  let cap = Int.max 64 (2 * t.n) in
  let ints a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  let times = Float.Array.create cap in
  Float.Array.blit t.times 0 times 0 t.n;
  t.times <- times;
  t.seqs <- ints t.seqs;
  t.acks <- ints t.acks;
  t.payloads <- ints t.payloads

let[@inline] tap t time (p : Netsim.packet) =
  if t.n = Array.length t.seqs then grow t;
  let i = t.n in
  Float.Array.set t.times i time;
  t.seqs.(i) <- p.Netsim.seq;
  t.acks.(i) <- p.Netsim.ack;
  t.payloads.(i) <- p.Netsim.payload;
  t.n <- i + 1

(* [tap] is inlined here, so the time is read and stored unboxed. *)
let observe t net p = tap t (Netsim.now net) p

let observations t =
  List.init t.n (fun i ->
      { time = Float.Array.get t.times i; seq = t.seqs.(i); ack = t.acks.(i);
        payload = t.payloads.(i) })

let length t = t.n

let total_payload t =
  let sum = ref 0 in
  for i = 0 to t.n - 1 do
    sum := !sum + t.payloads.(i)
  done;
  !sum

let max_ack t =
  let m = ref 0 in
  for i = 0 to t.n - 1 do
    m := Int.max !m t.acks.(i)
  done;
  !m

let n_bins ~bin ~duration =
  if bin <= 0. || duration <= 0. then
    invalid_arg "Trace: bin and duration must be positive";
  int_of_float (Float.ceil (duration /. bin))

let[@inline] bin_index ~bin ~n time =
  let i = int_of_float (time /. bin) in
  if i < 0 then 0 else if i >= n then n - 1 else i

(* Each bin sums integer byte counts, which floats hold exactly, so the
   series does not depend on the order the bytes are added in. *)
let bytes_sent_series t ~bin ~duration =
  let n = n_bins ~bin ~duration in
  let series = Array.make n 0. in
  for k = 0 to t.n - 1 do
    let time = Float.Array.get t.times k in
    if time <= duration then begin
      let i = bin_index ~bin ~n time in
      series.(i) <- series.(i) +. float_of_int t.payloads.(k)
    end
  done;
  series

let bytes_acked_series t ~bin ~duration =
  let n = n_bins ~bin ~duration in
  let series = Array.make n 0. in
  (* Walk observations oldest-first, tracking the highest ACK so far;
     credit each bin with the advance it saw. *)
  let high = ref 0 in
  for k = 0 to t.n - 1 do
    let time = Float.Array.get t.times k and ack = t.acks.(k) in
    if time <= duration && ack > !high then begin
      let i = bin_index ~bin ~n time in
      series.(i) <- series.(i) +. float_of_int (ack - !high);
      high := ack
    end
  done;
  series

let cumulative series =
  let out = Array.make (Array.length series) 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i v ->
       acc := !acc +. v;
       out.(i) <- !acc)
    series;
  out
