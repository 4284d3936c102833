type config = {
  window : float;
  bucket : float;
  threshold : float;
}

let default_config = { window = 3600.; bucket = 60.; threshold = 300. }

type entry = {
  e_key : Measurement.key;
  e_acc : Measurement.Acc.t;
  mutable e_last : float;          (* time of the last update touching the key *)
  mutable e_ring : int array;      (* per-bucket path changes; [||] until
                                      the key's first path change *)
  mutable e_ring_sum : int;
  mutable e_ring_newest : int;     (* absolute bucket index of the ring head *)
  mutable e_emitted : Asn.Set.t;   (* extra-AS events already emitted *)
}

(* A ghost is an evicted key's accumulator, frozen. Eviction reclaims the
   hot-path state (the ring and the live-set membership) but keeps the
   sealed statistics: they are bounded by the key space and the AS
   diversity of its paths — never by feed length — and carrying them is
   what makes a resurrected key continue exactly where the batch
   accounting would be (a withdrawn accumulator's residency credit is a
   no-op, so reusing it is bit-exact). *)
type ghost = {
  g_acc : Measurement.Acc.t;
  g_emitted : Asn.Set.t;
}

type stats = {
  live : int;
  ghosts : int;
  evictions : int;
  resurrections : int;
  scheduled : int;    (** extra-AS threshold timers ever armed *)
  fired : int;        (** timers that came due (emitted or not) *)
}

type t = {
  cfg : config;
  n_buckets : int;
  watched : Prefix.t -> bool;
  entries : entry Measurement.Key_table.t;
  ghost_tbl : ghost Measurement.Key_table.t;
  schedules : (Measurement.key * Asn.t) Pqueue.t;
  expiries : Measurement.key Pqueue.t;
  mutable watermark : float;
  mutable n_evictions : int;
  mutable n_resurrections : int;
  mutable n_scheduled : int;
  mutable n_fired : int;
}

let create ?(config = default_config) ~watched () =
  let { window; bucket; threshold } = config in
  let fail = Option.iter (fun msg -> invalid_arg ("Window.create: " ^ msg)) in
  fail (Serve_lint.window_problem ~window ~bucket);
  fail (Serve_lint.threshold_problem ~window ~threshold);
  { cfg = config;
    n_buckets = int_of_float (Float.round (window /. bucket));
    watched;
    entries = Measurement.Key_table.create 4096;
    ghost_tbl = Measurement.Key_table.create 4096;
    schedules = Pqueue.create ();
    expiries = Pqueue.create ();
    watermark = 0.;
    n_evictions = 0;
    n_resurrections = 0;
    n_scheduled = 0;
    n_fired = 0 }

let config t = t.cfg

let bucket_of t time = int_of_float (Float.floor (time /. t.cfg.bucket))

(* A key's ring is allocated on its first path change: a ring of zeros
   only moves its head forward, so starting it then, with the head at
   that change's bucket, holds the same counts. *)
let ring_advance t e b =
  if b > e.e_ring_newest && Array.length e.e_ring > 0 then begin
    let steps = min t.n_buckets (b - e.e_ring_newest) in
    for i = 1 to steps do
      let idx = (e.e_ring_newest + i) mod t.n_buckets in
      e.e_ring_sum <- e.e_ring_sum - e.e_ring.(idx);
      e.e_ring.(idx) <- 0
    done;
    e.e_ring_newest <- b
  end

let ring_bump t e b =
  if Array.length e.e_ring = 0 then begin
    e.e_ring <- Array.make t.n_buckets 0;
    e.e_ring_newest <- b
  end
  else ring_advance t e b;
  let idx = b mod t.n_buckets in
  e.e_ring.(idx) <- e.e_ring.(idx) + 1;
  e.e_ring_sum <- e.e_ring_sum + 1

let get_entry t key time =
  match Measurement.Key_table.find_opt t.entries key with
  | Some e -> e
  | None ->
      let acc, emitted =
        match Measurement.Key_table.find_opt t.ghost_tbl key with
        | Some g ->
            Measurement.Key_table.remove t.ghost_tbl key;
            t.n_resurrections <- t.n_resurrections + 1;
            (g.g_acc, g.g_emitted)
        | None -> (Measurement.Acc.create (), Asn.Set.empty)
      in
      let e =
        { e_key = key;
          e_acc = acc;
          e_last = time;
          e_ring = [||];
          e_ring_sum = 0;
          e_ring_newest = 0;
          e_emitted = emitted }
      in
      Measurement.Key_table.replace t.entries key e;
      e

let set_baseline t key set =
  let e = get_entry t key 0. in
  Measurement.Acc.set_baseline e.e_acc set

(* Fire one due extra-AS timer. [at] is the watermark the window is
   advancing to; the open-run length is measured against it, which makes
   the emitted set exactly the batch [Measurement.extra_ases] set: a
   finally-qualifying run's timer (armed at run entry, due at
   entry + threshold <= horizon) pops at a watermark where the run is
   either still open (length >= threshold by construction) or already
   closed at full length. *)
let fire t ~at evs (f, (key, asn)) =
  t.n_fired <- t.n_fired + 1;
  match Measurement.Key_table.find_opt t.entries key with
  | None -> ()
  | Some e ->
      if not (Asn.Set.mem asn e.e_emitted) then begin
        match Measurement.Acc.baseline e.e_acc with
        | Some base when not (Asn.Set.mem asn base) ->
            let run = Measurement.Acc.longest_run e.e_acc ~at asn in
            if run >= t.cfg.threshold then begin
              e.e_emitted <- Asn.Set.add asn e.e_emitted;
              evs :=
                Event.Extra_as { key; time = f; asn; run } :: !evs
            end
        | Some _ | None -> ()
      end

let expire t evs (f, key) =
  match Measurement.Key_table.find_opt t.entries key with
  | None -> ()
  | Some e ->
      if not (Measurement.Acc.routed e.e_acc)
         && Float.compare (e.e_last +. t.cfg.window) f <= 0
      then begin
        Measurement.Key_table.remove t.entries key;
        Measurement.Key_table.replace t.ghost_tbl key
          { g_acc = e.e_acc; g_emitted = e.e_emitted };
        t.n_evictions <- t.n_evictions + 1;
        evs :=
          Event.Evicted { key; time = f; cell = Measurement.Acc.cell key e.e_acc }
          :: !evs
      end

(* Timers first, then evictions: a timer that can still emit fires no
   later than its key's eviction (threshold <= window, and runs close at
   the withdrawal that starts the eviction countdown). *)
let advance_to t ~at evs =
  (* Most updates find nothing due: peek before popping. *)
  if Pqueue.due t.schedules at then
    List.iter (fire t ~at evs) (Pqueue.pop_until t.schedules at);
  if Pqueue.due t.expiries at then
    List.iter (expire t evs) (Pqueue.pop_until t.expiries at);
  if at > t.watermark then t.watermark <- at

let advance t at =
  let evs = ref [] in
  advance_to t ~at evs;
  List.rev !evs

(* Arm one threshold timer per AS entering a watched path, unless it is
   a baseline AS (never "extra") or already emitted. [old] and [next] are
   the accumulator's paths around the update, both ascending, so the
   timers are armed in ascending ASN order. *)
let arm t key e base ~(old : Asn.t array) ~next time =
  if next != old then begin
    let due = time +. t.cfg.threshold in
    let n_old = Array.length old in
    let i = ref 0 in
    for j = 0 to Array.length next - 1 do
      let a = next.(j) in
      while !i < n_old && (old.(!i) :> int) < (a :> int) do incr i done;
      if not (!i < n_old && (old.(!i) :> int) = (a :> int))
         && not (Asn.Set.mem a base)
         && not (Asn.Set.mem a e.e_emitted)
      then begin
        Pqueue.push t.schedules due (key, a);
        t.n_scheduled <- t.n_scheduled + 1
      end
    done
  end

let apply t (u : Update.t) =
  let time = u.Update.time in
  let evs = ref [] in
  advance_to t ~at:time evs;
  let key =
    { Measurement.session = u.Update.session; prefix = Update.prefix u }
  in
  let e = get_entry t key time in
  e.e_last <- time;
  let acc = e.e_acc in
  let watched = t.watched key.Measurement.prefix in
  (* Keys with no time-0 baseline never emit (batch rule), so only an
     announce on a watched key with a baseline can arm a timer. *)
  let base =
    match u.Update.kind with
    | Update.Announce _ when watched -> Measurement.Acc.baseline acc
    | Update.Announce _ | Update.Withdraw _ -> None
  in
  let old =
    match base with Some _ -> Measurement.Acc.path acc | None -> [||]
  in
  (match Measurement.Acc.consume acc u with
   | `Changed ->
       ring_bump t e (bucket_of t time);
       if watched then
         evs :=
           Event.Path_change
             { key; time;
               total = Measurement.Acc.path_changes acc;
               in_window = e.e_ring_sum }
           :: !evs
   | `First | `Same -> ()
   | `Withdrawn -> Pqueue.push t.expiries (time +. t.cfg.window) key);
  (match base with
   | Some base -> arm t key e base ~old ~next:(Measurement.Acc.path acc) time
   | None -> ());
  List.rev !evs

let drain t ~horizon =
  let evs = ref [] in
  advance_to t ~at:horizon evs;
  (* Timers past the horizon can never be satisfied within it; pending
     expiries die with the stream. *)
  ignore (Pqueue.drain t.schedules);
  ignore (Pqueue.drain t.expiries);
  Measurement.Key_table.iter
    (fun _ e -> Measurement.Acc.seal e.e_acc horizon)
    t.entries;
  List.rev !evs

let compare_key (a : Measurement.key) (b : Measurement.key) =
  match
    String.compare a.Measurement.session.Update.collector
      b.Measurement.session.Update.collector
  with
  | 0 -> begin
      match
        Asn.compare a.Measurement.session.Update.peer
          b.Measurement.session.Update.peer
      with
      | 0 -> Prefix.compare a.Measurement.prefix b.Measurement.prefix
      | c -> c
    end
  | c -> c

let cells t =
  let out = ref [] in
  let add key acc =
    match Measurement.Acc.cell key acc with
    | Some c -> out := c :: !out
    | None -> ()
  in
  Measurement.Key_table.iter (fun _ e -> add e.e_key e.e_acc) t.entries;
  Measurement.Key_table.iter (fun key g -> add key g.g_acc) t.ghost_tbl;
  List.sort (fun (a : Measurement.cell) b -> compare_key a.key b.key) !out

let in_window t key =
  match Measurement.Key_table.find_opt t.entries key with
  | None -> 0
  | Some e ->
      ring_advance t e (bucket_of t t.watermark);
      e.e_ring_sum

let watermark t = t.watermark

let stats t =
  { live = Measurement.Key_table.length t.entries;
    ghosts = Measurement.Key_table.length t.ghost_tbl;
    evictions = t.n_evictions;
    resurrections = t.n_resurrections;
    scheduled = t.n_scheduled;
    fired = t.n_fired }

let pp_stats ppf s =
  Format.fprintf ppf
    "window: %d live keys, %d ghosts (%d evictions, %d resurrections), \
     %d timers armed / %d fired"
    s.live s.ghosts s.evictions s.resurrections s.scheduled s.fired
