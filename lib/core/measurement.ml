type key = { session : Update.session_id; prefix : Prefix.t }

type cell = {
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

module Key_table = Hashtbl.Make (struct
    type t = key

    let equal a b =
      Update.session_equal a.session b.session && Prefix.equal a.prefix b.prefix

    let hash k = (Hashtbl.hash k.session.Update.collector * 31)
                 + (Asn.hash k.session.Update.peer * 7)
                 + Prefix.hash k.prefix
  end)

(* The per-key accumulator is the unit both the batch pipeline below and
   the qs_serve sliding window build on: one key's statistics depend only
   on that key's update subsequence, so any consumer that preserves
   per-key order reproduces the batch numbers exactly. *)
module Acc = struct
  type tables = {
    residency : (Asn.t, float) Hashtbl.t;
    entered : (Asn.t, float) Hashtbl.t; (* AS -> start of current on-path run *)
    contig : (Asn.t, float) Hashtbl.t;  (* AS -> longest completed run *)
  }

  (* Most cells only ever hold their time-0 route: at paper scale almost
     none of the ~116k (session, prefix) cells sees an update in an hour.
     Such a cell keeps no tables. Until its first update it is [Fresh]:
     no residency credited, no completed run, and every AS of
     [a_current] on a run open since t = 0 (so [a_since] = 0). Sealing a
     fresh cell at [h] records [Sealed_fresh h], which reads as every
     current AS with residency = longest run = [h] — bit for bit what the
     tables would hold. The first update materializes the tables exactly
     as [set_baseline] would have built them. *)
  type body = Fresh | Sealed_fresh of float | Eager of tables

  type t = {
    mutable a_baseline : Asn.Set.t option;
    mutable a_updates : int;
    mutable a_announces : int;
    mutable a_changes : int;
    mutable a_current : Asn.Set.t option;
    mutable a_since : float;
    mutable a_body : body;
  }

  type event = [ `First | `Same | `Changed | `Withdrawn ]

  let create () =
    { a_baseline = None; a_updates = 0; a_announces = 0; a_changes = 0;
      a_current = None; a_since = 0.; a_body = Fresh }

  let current_ases acc =
    Option.value ~default:Asn.Set.empty acc.a_current

  (* Sealing a fresh cell at [h] credits each current AS [h -. 0.] and
     closes its run at that length, both only when positive — and
     [h > 0.] is that very test, -0. included. *)
  let sealed_runs acc h =
    if h > 0. then Asn.Set.fold (fun a l -> (a, h) :: l) (current_ases acc) []
    else []

  let tables acc =
    match acc.a_body with
    | Eager tb -> tb
    | (Fresh | Sealed_fresh _) as body ->
        let tb =
          { residency = Hashtbl.create 8; entered = Hashtbl.create 8;
            contig = Hashtbl.create 8 }
        in
        (match body with
         | Sealed_fresh h ->
             List.iter
               (fun (a, d) ->
                  Hashtbl.replace tb.residency a d;
                  Hashtbl.replace tb.contig a d)
               (sealed_runs acc h)
         | Fresh | Eager _ ->
             Asn.Set.iter
               (fun a -> Hashtbl.replace tb.entered a 0.)
               (current_ases acc));
        acc.a_body <- Eager tb;
        tb

  let credit_residency acc tb until =
    match acc.a_current with
    | None -> ()
    | Some set ->
        let dt = until -. acc.a_since in
        if dt > 0. then
          Asn.Set.iter
            (fun a ->
               let cur =
                 Option.value ~default:0. (Hashtbl.find_opt tb.residency a)
               in
               Hashtbl.replace tb.residency a (cur +. dt))
            set

  let close_run tb a until =
    match Hashtbl.find_opt tb.entered a with
    | None -> ()
    | Some start ->
        Hashtbl.remove tb.entered a;
        let run = until -. start in
        let best = Option.value ~default:0. (Hashtbl.find_opt tb.contig a) in
        if run > best then Hashtbl.replace tb.contig a run

  (* Maintain per-AS contiguous on-path runs: an AS's run survives path
     changes as long as the AS stays somewhere on the path; it closes the
     moment the AS leaves (or the route is withdrawn). *)
  let track_membership acc tb time next =
    let old = current_ases acc in
    let next = Option.value ~default:Asn.Set.empty next in
    Asn.Set.iter
      (fun a -> if not (Asn.Set.mem a next) then close_run tb a time) old;
    Asn.Set.iter
      (fun a ->
         if not (Hashtbl.mem tb.entered a) then
           Hashtbl.replace tb.entered a time)
      next

  let set_baseline acc set =
    acc.a_baseline <- Some set;
    (match acc.a_body with
     | Fresh -> ()
     | Sealed_fresh _ | Eager _ ->
         track_membership acc (tables acc) 0. (Some set));
    acc.a_current <- Some set;
    acc.a_since <- 0.

  let consume acc (u : Update.t) : event =
    let tb = tables acc in
    match u.Update.kind with
    | Update.Announce route ->
        acc.a_updates <- acc.a_updates + 1;
        acc.a_announces <- acc.a_announces + 1;
        let set = Route.as_set route in
        let ev =
          match acc.a_current with
          | Some old when Asn.Set.equal old set -> `Same
          | Some _ -> acc.a_changes <- acc.a_changes + 1; `Changed
          | None -> `First
        in
        credit_residency acc tb u.Update.time;
        track_membership acc tb u.Update.time (Some set);
        acc.a_current <- Some set;
        acc.a_since <- u.Update.time;
        ev
    | Update.Withdraw _ ->
        (* A withdrawal is BGP churn like any other update; it must count. *)
        acc.a_updates <- acc.a_updates + 1;
        credit_residency acc tb u.Update.time;
        track_membership acc tb u.Update.time None;
        acc.a_current <- None;
        acc.a_since <- u.Update.time;
        `Withdrawn

  let seal acc until =
    match acc.a_body with
    | Fresh -> acc.a_body <- Sealed_fresh until
    | Sealed_fresh _ -> ()
    | Eager tb ->
        credit_residency acc tb until;
        let open_runs = Hashtbl.fold (fun a _ l -> a :: l) tb.entered [] in
        List.iter (fun a -> close_run tb a until) open_runs

  let materializes acc = acc.a_baseline <> None || acc.a_announces > 0

  let residency acc =
    match acc.a_body with
    | Fresh -> []
    | Sealed_fresh h -> sealed_runs acc h
    | Eager tb -> Hashtbl.fold (fun a d l -> (a, d) :: l) tb.residency []

  let contiguous acc =
    match acc.a_body with
    | Fresh -> []
    | Sealed_fresh h -> sealed_runs acc h
    | Eager tb -> Hashtbl.fold (fun a d l -> (a, d) :: l) tb.contig []

  let cell key acc =
    if not (materializes acc) then None
    else
      let residency, contiguous =
        match acc.a_body with
        | Sealed_fresh h ->
            let runs = sealed_runs acc h in
            (runs, runs)
        | Fresh | Eager _ -> (residency acc, contiguous acc)
      in
      Some
        { key;
          baseline = acc.a_baseline;
          updates = acc.a_updates;
          path_changes = acc.a_changes;
          residency;
          contiguous;
          final_set = acc.a_current }

  let baseline acc = acc.a_baseline
  let current acc = acc.a_current
  let updates acc = acc.a_updates
  let announces acc = acc.a_announces
  let path_changes acc = acc.a_changes

  let run_start acc a =
    match acc.a_body with
    | Fresh -> if Asn.Set.mem a (current_ases acc) then Some 0. else None
    | Sealed_fresh _ -> None
    | Eager tb -> Hashtbl.find_opt tb.entered a

  let best_run acc a =
    match acc.a_body with
    | Fresh -> 0.
    | Sealed_fresh h ->
        if h > 0. && Asn.Set.mem a (current_ases acc) then h else 0.
    | Eager tb -> Option.value ~default:0. (Hashtbl.find_opt tb.contig a)

  let longest_run acc ~at a =
    let closed = best_run acc a in
    match run_start acc a with
    | None -> closed
    | Some start -> Float.max closed (at -. start)
end

let feed ?(dynamics = Dynamics.default_config) ?filter ?(no_filter = false)
    ?(extra_updates = []) ~baseline scenario consume =
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
    else Some (Session_reset.create ?config:filter ~emit:downstream ())
  in
  let emit =
    match filter_state with
    | Some f -> Session_reset.push f
    | None -> downstream
  in
  (* Baselines and reset-filter table sizes come from the time-0 tables,
     registered before any update flows. *)
  let on_initial initial =
    Update.Session_map.iter
      (fun session table0 ->
         (match filter_state with
          | Some f ->
              Session_reset.preload_table f session (Prefix.Map.cardinal table0)
          | None -> ());
         Prefix.Map.iter
           (fun prefix route ->
              baseline { session; prefix } (Route.as_set route))
           table0)
      initial
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

(* Registry mirrors: one bulk add per [run], so counts are exact at any
   worker count and accumulate across repeated measurements. *)
let m_updates =
  Metrics.counter ~help:"updates consumed by measurement" "measurement.updates"

let m_cells =
  Metrics.counter ~help:"(session, prefix) cells materialized"
    "measurement.cells"

let run ?(dynamics = Dynamics.default_config) ?filter ?no_filter
    ?extra_updates ?observe scenario =
  Span.with_ ~name:"measurement.run" @@ fun () ->
  let n_consumed = ref 0 in
  let table : Acc.t Key_table.t = Key_table.create 65536 in
  let get_acc key =
    match Key_table.find_opt table key with
    | Some a -> a
    | None ->
        let a = Acc.create () in
        Key_table.replace table key a;
        a
  in
  let consume (u : Update.t) =
    incr n_consumed;
    (match observe with Some f -> f u | None -> ());
    let key = { session = u.Update.session; prefix = Update.prefix u } in
    ignore (Acc.consume (get_acc key) u : Acc.event)
  in
  let initial, dyn_stats, filter_stats =
    feed ~dynamics ?filter ?no_filter ?extra_updates
      ~baseline:(fun key set -> Acc.set_baseline (get_acc key) set)
      scenario consume
  in
  let duration = dynamics.Dynamics.duration in
  let visibility = Prefix.Table.create 4096 in
  let cells =
    Key_table.fold
      (fun key acc out ->
         (* A key that only ever saw withdrawals carries no routing state:
            no baseline, no route, nothing a collector could measure.
            Materializing it would skew per-cell counts, so drop it. *)
         match
           (if Acc.materializes acc then Acc.seal acc duration);
           Acc.cell key acc
         with
         | None -> out
         | Some cell ->
             let cur =
               Option.value ~default:0
                 (Prefix.Table.find_opt visibility key.prefix)
             in
             Prefix.Table.replace visibility key.prefix (cur + 1);
             cell :: out)
      table []
  in
  Metrics.add m_updates !n_consumed;
  Metrics.add m_cells (List.length cells);
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

let cells_for_session t session =
  List.filter (fun c -> Update.session_equal c.key.session session) t.cells

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
