type config = {
  capacity : int;
  slack : float;
}

let default_config = { capacity = 65536; slack = 120. }

type push_result = [ `Accepted | `Dropped_late | `Dropped_overflow ]

type stats = {
  ingested : int;
  released : int;
  dropped_late : int;
  dropped_overflow : int;
  queued : int;
  max_seen : float;
  watermark : float;
}

type t = {
  cfg : config;
  queue : Update.t Pqueue.t;
  mutable ingested : int;
  mutable released : int;
  mutable dropped_late : int;
  mutable dropped_overflow : int;
  mutable max_seen : float;
}

let create ?(config = default_config) () =
  let fail = Option.iter (fun msg -> invalid_arg ("Ingest.create: " ^ msg)) in
  fail (Serve_lint.capacity_problem config.capacity);
  fail (Serve_lint.slack_problem config.slack);
  { cfg = config;
    queue = Pqueue.create ();
    ingested = 0;
    released = 0;
    dropped_late = 0;
    dropped_overflow = 0;
    max_seen = neg_infinity }

let config t = t.cfg

let watermark t =
  if t.max_seen = neg_infinity then neg_infinity
  else t.max_seen -. t.cfg.slack

let queued t = Pqueue.length t.queue

let push t (u : Update.t) : push_result =
  t.ingested <- t.ingested + 1;
  if u.Update.time < watermark t then begin
    t.dropped_late <- t.dropped_late + 1;
    `Dropped_late
  end
  else if Pqueue.length t.queue >= t.cfg.capacity then begin
    t.dropped_overflow <- t.dropped_overflow + 1;
    `Dropped_overflow
  end
  else begin
    Pqueue.push t.queue u.Update.time u;
    if u.Update.time > t.max_seen then t.max_seen <- u.Update.time;
    `Accepted
  end

let ready t =
  let due = Pqueue.pop_until t.queue (watermark t) in
  t.released <- t.released + List.length due;
  List.map snd due

let flush t =
  let rest = Pqueue.drain t.queue in
  t.released <- t.released + List.length rest;
  List.map snd rest

let stats t =
  { ingested = t.ingested;
    released = t.released;
    dropped_late = t.dropped_late;
    dropped_overflow = t.dropped_overflow;
    queued = queued t;
    max_seen = t.max_seen;
    watermark = watermark t }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "ingest: %d ingested = %d released + %d late + %d overflow + %d queued \
     (watermark %.0f)"
    s.ingested s.released s.dropped_late s.dropped_overflow s.queued
    s.watermark

(* MRT records are length-headered (12-byte header, big-endian length at
   offset 8), so chunk boundaries are found with a cheap linear scan and
   the expensive BGP attribute parsing runs as pool tasks. Slice order is
   submission order, so the result is byte-identical at any [jobs]. *)
let mrt_record_ends data =
  let len = String.length data in
  let rec scan pos acc =
    if pos >= len then List.rev acc
    else if pos + 12 > len then raise (Mrt.Malformed "truncated MRT header")
    else
      let rlen = Int32.to_int (String.get_int32_be data (pos + 8)) in
      if rlen < 0 || pos + 12 + rlen > len then
        raise (Mrt.Malformed "MRT record overruns buffer")
      else scan (pos + 12 + rlen) ((pos + 12 + rlen) :: acc)
  in
  scan 0 []

let decode_mrt ?(chunk = 512) ~collector ~exec data =
  if chunk <= 0 then invalid_arg "Ingest.decode_mrt: chunk must be positive";
  let ends = Array.of_list (mrt_record_ends data) in
  let n = Array.length ends in
  let slices = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n do
    let last = min (n - 1) (!i + chunk - 1) in
    slices := (!start, ends.(last) - !start) :: !slices;
    start := ends.(last);
    i := last + 1
  done;
  List.rev !slices
  |> Pool.map_list exec (fun (off, len) ->
      Mrt.decode (String.sub data off len)
      |> List.concat_map (Mrt.update_of_record ~collector))
  |> List.concat
