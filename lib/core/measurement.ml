type key = Cell_template.key = { session : Update.session_id; prefix : Prefix.t }

type cell = Cell_template.cell = {
  key : key;
  baseline : Asn.Set.t option;
  updates : int;
  path_changes : int;
  residency : (Asn.t * float) list;
  contiguous : (Asn.t * float) list;
  final_set : Asn.Set.t option;
}

type t = {
  scenario : Scenario.t;
  duration : float;
  initial : Dynamics.initial;
  cells : cell list;
  dyn_stats : Dynamics.stats;
  filter_stats : Session_reset.stats option;
  visibility : int Prefix.Table.t;  (* sessions that ever saw the prefix *)
  n_sessions : int;
}

module Key_table = Cell_template.Key_table

let iter_baselines = Cell_template.iter_baselines

(* The per-key accumulator is the unit both the batch pipeline below and
   the qs_serve sliding window build on: one key's statistics depend only
   on that key's update subsequence, so any consumer that preserves
   per-key order reproduces the batch numbers exactly. *)
module Acc = struct
  (* The per-AS state of a cell that has seen an update, in parallel
     arrays: one slot per AS ever on the path, in first-seen order. A
     cell sees few distinct ASes, so a slot is found by a linear scan. An
     AS is on an open run exactly while it is on the current path (until
     the seal closes every run); [start] holds nan for the others, so
     closing a run that is not open compares nan and changes nothing. *)
  type slots = {
    mutable n : int;                (* slots in use *)
    mutable asns : Asn.t array;
    mutable resid : Float.Array.t;  (* seconds on the path so far *)
    mutable start : Float.Array.t;  (* start of the open run, or nan *)
    mutable best : Float.Array.t;   (* longest completed run *)
    mutable path : Asn.t array;     (* current path: ascending, distinct *)
    mutable path_slot : int array;  (* the slot of each [path] AS *)
    since : Float.Array.t;          (* one element: last update's time *)
  }

  (* Most cells only ever hold their time-0 route: at paper scale almost
     none of the ~116k (session, prefix) cells sees an update in an hour.
     Such a cell keeps no slots. Until its first update it is [Fresh]: its
     path is the baseline set, no residency credited, no completed run,
     and every baseline AS on a run open since t = 0. Sealing a fresh cell
     at [h] records [Sealed_fresh h], which reads as every baseline AS
     with residency = longest run = [h] — bit for bit what the slots would
     hold. The first update converts the baseline into slots exactly as
     those reads describe. *)
  type body = Fresh | Sealed_fresh of float | Eager of slots

  type t = {
    mutable a_baseline : Asn.Set.t option;
    mutable a_updates : int;
    mutable a_announces : int;
    mutable a_changes : int;
    mutable a_routed : bool;  (* holds a route (a fresh cell: its baseline) *)
    mutable a_body : body;
  }

  type event = [ `First | `Same | `Changed | `Withdrawn ]

  let create () =
    { a_baseline = None; a_updates = 0; a_announces = 0; a_changes = 0;
      a_routed = false; a_body = Fresh }

  let fresh_path acc = Option.value ~default:Asn.Set.empty acc.a_baseline

  let sealed_runs acc h = Cell_template.sealed_runs (fresh_path acc) h

  let slots acc =
    match acc.a_body with
    | Eager s -> s
    | (Fresh | Sealed_fresh _) as body ->
        let path = Array.of_list (Asn.Set.elements (fresh_path acc)) in
        let k = Array.length path in
        let cap = k + 4 in
        let asns = Array.make cap (Asn.of_int 0) in
        Array.blit path 0 asns 0 k;
        let resid = Float.Array.make cap 0. in
        let start = Float.Array.make cap nan in
        let best = Float.Array.make cap 0. in
        (match body with
         | Sealed_fresh h ->
             if h > 0. then begin
               Float.Array.fill resid 0 k h;
               Float.Array.fill best 0 k h
             end
         | Fresh | Eager _ -> Float.Array.fill start 0 k 0.);
        let s =
          { n = k; asns; resid; start; best; path;
            path_slot = Array.init k Fun.id; since = Float.Array.make 1 0. }
        in
        acc.a_body <- Eager s;
        s

  let rec find_from (asns : Asn.t array) n (a : Asn.t) i =
    if i = n then -1
    else if (asns.(i) :> int) = (a :> int) then i
    else find_from asns n a (i + 1)

  let find s a = find_from s.asns s.n a 0

  let grow s =
    let cap = 2 * Array.length s.asns in
    let floats src fill =
      let dst = Float.Array.make cap fill in
      Float.Array.blit src 0 dst 0 s.n;
      dst
    in
    let asns = Array.make cap (Asn.of_int 0) in
    Array.blit s.asns 0 asns 0 s.n;
    s.asns <- asns;
    s.resid <- floats s.resid 0.;
    s.start <- floats s.start nan;
    s.best <- floats s.best 0.

  let slot_of s a =
    match find s a with
    | -1 ->
        if s.n = Array.length s.asns then grow s;
        s.asns.(s.n) <- a;
        s.n <- s.n + 1;
        s.n - 1
    | i -> i

  (* Credit every AS on the current path with the time since the last
     update. *)
  let credit s until =
    let dt = until -. Float.Array.get s.since 0 in
    if dt > 0. then
      for j = 0 to Array.length s.path_slot - 1 do
        let i = s.path_slot.(j) in
        Float.Array.set s.resid i (Float.Array.get s.resid i +. dt)
      done

  let close_run s i until =
    let run = until -. Float.Array.get s.start i in
    if run > Float.Array.get s.best i then Float.Array.set s.best i run;
    Float.Array.set s.start i nan

  (* Maintain per-AS contiguous on-path runs: an AS's run survives path
     changes as long as the AS stays somewhere on the path; it closes the
     moment the AS leaves (or the route is withdrawn). [next] is sorted
     and distinct, like [s.path], so one merge walk finds both sides. *)
  let move s (next : Asn.t array) until =
    let old = s.path and old_slot = s.path_slot in
    let n_old = Array.length old and n_next = Array.length next in
    let next_slot = Array.make n_next 0 in
    let i = ref 0 and j = ref 0 in
    while !i < n_old || !j < n_next do
      if !j = n_next || (!i < n_old && (old.(!i) :> int) < (next.(!j) :> int))
      then begin
        close_run s old_slot.(!i) until;
        incr i
      end
      else if !i = n_old || (next.(!j) :> int) < (old.(!i) :> int) then begin
        let k = slot_of s next.(!j) in
        Float.Array.set s.start k until;
        next_slot.(!j) <- k;
        incr j
      end
      else begin
        next_slot.(!j) <- old_slot.(!i);
        incr i;
        incr j
      end
    done;
    s.path <- next;
    s.path_slot <- next_slot

  (* The ascending, distinct ASes of an AS path (insertion sort: paths are
     a handful of hops). *)
  let path_of_list (l : Asn.t list) =
    let a = Array.of_list l in
    let k = ref 0 in
    for i = 0 to Array.length a - 1 do
      let x = a.(i) in
      let p = ref !k in
      while !p > 0 && (a.(!p - 1) :> int) > (x :> int) do decr p done;
      if !p = 0 || (a.(!p - 1) :> int) <> (x :> int) then begin
        for q = !k downto !p + 1 do a.(q) <- a.(q - 1) done;
        a.(!p) <- x;
        incr k
      end
    done;
    if !k = Array.length a then a else Array.sub a 0 !k

  let rec on_list (a : Asn.t) : Asn.t list -> bool = function
    | [] -> false
    | b :: rest -> (b :> int) = (a :> int) || on_list a rest

  let rec all_on path = function
    | [] -> true
    | a :: rest ->
        find_from path (Array.length path) a 0 >= 0 && all_on path rest

  let rec covers (path : Asn.t array) l i =
    i = Array.length path || (on_list path.(i) l && covers path l (i + 1))

  (* The AS path [l] has exactly the ASes of [path], decided without
     allocating. *)
  let same_ases path l = all_on path l && covers path l 0

  let set_baseline acc set =
    acc.a_baseline <- Some set;
    (match acc.a_body with
     | Fresh -> ()
     | Sealed_fresh _ | Eager _ ->
         let s = slots acc in
         move s (Array.of_list (Asn.Set.elements set)) 0.;
         Float.Array.set s.since 0 0.);
    acc.a_routed <- true

  let consume acc (u : Update.t) : event =
    let s = slots acc in
    let time = u.Update.time in
    credit s time;
    Float.Array.set s.since 0 time;
    (* A withdrawal is BGP churn like any other update; it must count. *)
    acc.a_updates <- acc.a_updates + 1;
    match u.Update.kind with
    | Update.Announce route ->
        acc.a_announces <- acc.a_announces + 1;
        let l = route.Route.as_path in
        if acc.a_routed && same_ases s.path l then `Same
        else begin
          let ev =
            if acc.a_routed then begin
              acc.a_changes <- acc.a_changes + 1;
              `Changed
            end
            else `First
          in
          move s (path_of_list l) time;
          acc.a_routed <- true;
          ev
        end
    | Update.Withdraw _ ->
        move s [||] time;
        acc.a_routed <- false;
        `Withdrawn

  let seal acc until =
    match acc.a_body with
    | Fresh -> acc.a_body <- Sealed_fresh until
    | Sealed_fresh _ -> ()
    | Eager s ->
        credit s until;
        for j = 0 to Array.length s.path_slot - 1 do
          close_run s s.path_slot.(j) until
        done

  let materializes acc = acc.a_baseline <> None || acc.a_announces > 0

  (* The slots whose value is positive, in slot order: a residency is
     credited, and a run recorded, only when positive. *)
  let positive s values =
    let rec go i l =
      if i < 0 then l
      else
        let d = Float.Array.get values i in
        go (i - 1) (if d > 0. then (s.asns.(i), d) :: l else l)
    in
    go (s.n - 1) []

  let residency acc =
    match acc.a_body with
    | Fresh -> []
    | Sealed_fresh h -> sealed_runs acc h
    | Eager s -> positive s s.resid

  let contiguous acc =
    match acc.a_body with
    | Fresh -> []
    | Sealed_fresh h -> sealed_runs acc h
    | Eager s -> positive s s.best

  let cell key acc =
    if not (materializes acc) then None
    else
      let residency, contiguous, final_set =
        match acc.a_body with
        | Fresh -> ([], [], acc.a_baseline)
        | Sealed_fresh h ->
            let runs = sealed_runs acc h in
            (runs, runs, acc.a_baseline)
        | Eager s ->
            ( positive s s.resid,
              positive s s.best,
              if acc.a_routed then
                Some (Asn.Set.of_list (Array.to_list s.path))
              else None )
      in
      Some
        { key;
          baseline = acc.a_baseline;
          updates = acc.a_updates;
          path_changes = acc.a_changes;
          residency;
          contiguous;
          final_set }

  let baseline acc = acc.a_baseline
  let routed acc = acc.a_routed
  let path acc = if acc.a_routed then (slots acc).path else [||]
  let updates acc = acc.a_updates
  let announces acc = acc.a_announces
  let path_changes acc = acc.a_changes

  let run_start acc a =
    match acc.a_body with
    | Fresh -> if Asn.Set.mem a (fresh_path acc) then Some 0. else None
    | Sealed_fresh _ -> None
    | Eager s ->
        let i = find s a in
        if i < 0 || Float.is_nan (Float.Array.get s.start i) then None
        else Some (Float.Array.get s.start i)

  let best_run acc a =
    match acc.a_body with
    | Fresh -> 0.
    | Sealed_fresh h ->
        if h > 0. && Asn.Set.mem a (fresh_path acc) then h else 0.
    | Eager s ->
        let i = find s a in
        if i < 0 then 0. else Float.Array.get s.best i

  let longest_run acc ~at a =
    let closed = best_run acc a in
    match run_start acc a with
    | None -> closed
    | Some start -> Float.max closed (at -. start)
end

let feed ?(dynamics = Dynamics.default_config) ?(no_filter = false)
    ?(extra_updates = []) ~on_initial scenario consume =
  (* Merge the (time-sorted) attack updates into the stream. *)
  let pending_extra = ref extra_updates in
  let flush_extra_until time =
    let rec loop () =
      match !pending_extra with
      | e :: rest when e.Update.time <= time ->
          pending_extra := rest;
          consume e;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  let downstream u =
    flush_extra_until u.Update.time;
    consume u
  in
  let filter_state =
    if no_filter then None
    else Some (Session_reset.create ~emit:downstream ())
  in
  let emit =
    match filter_state with
    | Some f -> Session_reset.push f
    | None -> downstream
  in
  (* Reset-filter table sizes and the consumer's baselines come from the
     time-0 tables, registered before any update flows. *)
  let on_initial initial =
    (match filter_state with
     | Some f ->
         Update.Session_map.iter
           (fun session table0 ->
              Session_reset.preload_table f session (Prefix.Map.cardinal table0))
           initial
     | None -> ());
    on_initial initial
  in
  let initial, dyn_stats =
    (* The trace-churn generator (when [dynamics.session_churn] is set)
       rides the scenario's dedicated stream so the Poisson processes on
       the "measurement" stream are untouched by the choice of trace
       model. *)
    Dynamics.run ~rng:(Scenario.rng_for scenario "measurement")
      ~trace_rng:(Scenario.rng_for scenario "trace-churn")
      ~on_initial dynamics scenario.Scenario.world ~emit
  in
  (match filter_state with
   | Some f -> Session_reset.flush f
   | None -> ());
  flush_extra_until infinity;
  (initial, dyn_stats, Option.map Session_reset.stats filter_state)

let run ?(dynamics = Dynamics.default_config) ?no_filter
    ?extra_updates ?observe scenario =
  Span.with_ ~name:"measurement.run" @@ fun () ->
  let n_consumed = ref 0 in
  (* Set from the time-0 cell template by [on_initial], before any
     update: [table] maps every key to its index, time-0 keys first in
     the template's order, and [accs.(i)] is key [i]'s accumulator once
     an update has touched it ([untouched] until then). [table] is the
     template's own until an update names a key outside time 0; the run
     then adds it, and every later one, to a copy. *)
  let tpl = ref None in
  let table = ref (Key_table.create 1) and owned = ref false in
  let untouched = Acc.create () in
  let accs = ref [||] and n_keys = ref 0 in
  let on_initial initial =
    let t =
      Cell_template.for_run ~share:dynamics.Dynamics.delta
        scenario.Scenario.cell_template initial
    in
    tpl := Some t;
    table := Cell_template.keys t;
    n_keys := Cell_template.length t;
    accs := Array.make (!n_keys + 64) untouched
  in
  let acc_at i =
    let a = !accs.(i) in
    if a != untouched then a
    else begin
      let a = Acc.create () in
      (match !tpl with
       | Some t when i < Cell_template.length t ->
           Acc.set_baseline a (Cell_template.baseline t i)
       | Some _ | None -> ());
      !accs.(i) <- a;
      a
    end
  in
  let index_of key =
    match Key_table.find !table key with
    | i -> i
    | exception Not_found ->
        let i = !n_keys in
        if i = Array.length !accs then begin
          let grown = Array.make (i + (i / 2)) untouched in
          Array.blit !accs 0 grown 0 i;
          accs := grown
        end;
        if not !owned then begin
          table := Key_table.copy !table;
          owned := true
        end;
        Key_table.add !table key i;
        incr n_keys;
        i
  in
  let consume (u : Update.t) =
    incr n_consumed;
    (match observe with Some f -> f u | None -> ());
    let key = { session = u.Update.session; prefix = Update.prefix u } in
    ignore (Acc.consume (acc_at (index_of key)) u : Acc.event)
  in
  let initial, dyn_stats, filter_stats =
    feed ~dynamics ?no_filter ?extra_updates ~on_initial scenario consume
  in
  let t =
    match !tpl with
    | Some t -> t
    | None -> invalid_arg "Measurement.run: no time-0 tables"
  in
  let duration = dynamics.Dynamics.duration in
  let sealed = Cell_template.sealed_at t duration in
  let visibility = Cell_template.visibility t in
  let n0 = Cell_template.length t and accs = !accs in
  let cells =
    Key_table.fold
      (fun key i out ->
         let acc = accs.(i) in
         if acc == untouched then Cell_template.sealed_cell t sealed key i :: out
         else
           (* A key that only ever saw withdrawals carries no routing
              state: no baseline, no route, nothing a collector could
              measure. Materializing it would skew per-cell counts, so
              drop it. *)
           match
             (if Acc.materializes acc then Acc.seal acc duration);
             Acc.cell key acc
           with
           | None -> out
           | Some cell ->
               (* the template counts every time-0 key *)
               if i >= n0 then begin
                 let cur =
                   Option.value ~default:0
                     (Prefix.Table.find_opt visibility key.prefix)
                 in
                 Prefix.Table.replace visibility key.prefix (cur + 1)
               end;
               cell :: out)
      !table []
  in
  Metrics.add Manifest.measurement_updates !n_consumed;
  Metrics.add Manifest.measurement_cells (List.length cells);
  { scenario; duration; initial; cells; dyn_stats; filter_stats; visibility;
    n_sessions = List.length (Scenario.sessions scenario) }

let pp_dynamics_summary ppf t =
  let s = t.dyn_stats in
  Format.fprintf ppf
    "@[<v>dynamics: %d updates (%d announce / %d withdraw), %d churn events@,\
     propagation: %d full recomputations, %d delta steps (%d stop-early \
     links)%s@,\
     horizon: %d updates dropped past t=%g, %d links still failed@]"
    s.Dynamics.updates_emitted s.Dynamics.announces s.Dynamics.withdraws
    s.Dynamics.churn_events s.Dynamics.full_recomputations
    s.Dynamics.delta_steps s.Dynamics.delta_stop_early
    (if s.Dynamics.delta_steps = 0 then " (delta disabled or unused)" else "")
    s.Dynamics.post_horizon_dropped t.duration
    s.Dynamics.final_failed

let is_tor t p = Tor_prefix.is_tor_prefix t.scenario.Scenario.tor_prefixes p

let changes_of c = c.path_changes

(* The paper's rule is "seen on the path for more than five minutes" — a
   sustained presence, so the threshold applies to the longest contiguous
   run, not the cumulative residency (ten disjoint 40 s appearances must
   not qualify). *)
let extra_ases ?(threshold = 300.) cell =
  match cell.baseline with
  | None -> Asn.Set.empty
  | Some base ->
      List.fold_left
        (fun acc (a, d) ->
           if d >= threshold && not (Asn.Set.mem a base) then Asn.Set.add a acc
           else acc)
        Asn.Set.empty cell.contiguous

let visibility_fraction t p =
  if t.n_sessions = 0 then 0.
  else
    float_of_int (Option.value ~default:0 (Prefix.Table.find_opt t.visibility p))
    /. float_of_int t.n_sessions
