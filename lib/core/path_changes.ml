type t = {
  ratios : float list;
  ccdf : Ccdf.t;
  frac_above_one : float;
  max_ratio : float;
  frac_tor_beating_median_somewhere : float;
  per_session_median : (Update.session_id * float) list;
  busiest : (Prefix.t * Update.session_id * int) option;
}

(* One session's cells, gathered in the one pass over every cell: its
   nonzero path-change counts (zeros are only counted) and its Tor
   cells' (prefix, changes), latest cell first. *)
type session_cells = {
  id : Update.session_id;
  mutable zeros : int;
  mutable nonzero : int list;
  mutable tor : (Prefix.t * int) list;
}

(* One session's statistics, computed independently of every other
   session — the parallel unit of [compute]. *)
type session_stats = {
  s_id : Update.session_id;
  s_median : float;
  s_tor : (Prefix.t * float * int) list;   (* (prefix, ratio, changes) *)
}

(* [Stats.median] of the session's path-change counts, the same float:
   [Stats.percentile]'s interpolation applied to the two middle values of
   the sorted counts. Counts are never negative, so the zeros come first
   in sorted order and only the nonzero ones are sorted. *)
let median_changes s =
  let sorted = Array.of_list s.nonzero in
  Array.sort Int.compare sorted;
  let nth k = if k < s.zeros then 0 else sorted.(k - s.zeros) in
  let n = s.zeros + Array.length sorted in
  let rank = 0.5 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  let a = float_of_int (nth lo) and b = float_of_int (nth hi) in
  a +. (frac *. (b -. a))

let compute ?exec (m : Measurement.t) =
  Span.with_ ~name:"path_changes.compute" @@ fun () ->
  let pool = match exec with Some p -> p | None -> Pool.default () in
  (* One pass over the cells: one session lookup and one Tor lookup per
     cell. *)
  let by_session = Update.Session_table.create 128 in
  List.iter
    (fun (c : Measurement.cell) ->
       let id = c.Measurement.key.Measurement.session in
       let s =
         match Update.Session_table.find by_session id with
         | s -> s
         | exception Not_found ->
             let s = { id; zeros = 0; nonzero = []; tor = [] } in
             Update.Session_table.add by_session id s;
             s
       in
       let changes = c.Measurement.path_changes in
       if changes = 0 then s.zeros <- s.zeros + 1
       else s.nonzero <- changes :: s.nonzero;
       let p = c.Measurement.key.Measurement.prefix in
       if Measurement.is_tor m p then s.tor <- (p, changes) :: s.tor)
    m.Measurement.cells;
  (* Canonical session order: results no longer depend on hash-table
     iteration order, so the reduce below is stable at any worker count. *)
  let sessions =
    Update.Session_table.fold (fun _ s acc -> s :: acc) by_session []
    |> List.sort (fun a b -> Update.session_compare a.id b.id)
    |> Array.of_list
  in
  let stats =
    Pool.map pool
      (fun s ->
         let median = median_changes s in
         (* Ratios are only defined where the session's median is
            nonzero; the paper's sessions all saw background churn. We
            floor the median at 1 change to keep ratios finite, which
            only makes the comparison harder for Tor prefixes. *)
         let denom = Float.max 1. median in
         { s_id = s.id; s_median = median;
           s_tor =
             List.map
               (fun (p, changes) -> (p, float_of_int changes /. denom, changes))
               s.tor })
      sessions
  in
  let ratios = ref [] and above = ref 0 in
  let per_session_median = ref [] in
  let beating = Prefix.Table.create 256 in   (* Tor prefix -> beat somewhere *)
  let tor_seen = Prefix.Table.create 256 in
  let busiest = ref None in
  Array.iter
    (fun s ->
       per_session_median := (s.s_id, s.s_median) :: !per_session_median;
       List.iter
         (fun (p, r, changes) ->
            Prefix.Table.replace tor_seen p ();
            ratios := r :: !ratios;
            if r > 1. then begin
              incr above;
              Prefix.Table.replace beating p ()
            end;
            match !busiest with
            | Some (_, _, best) when best >= changes -> ()
            | _ -> busiest := Some (p, s.s_id, changes))
         s.s_tor)
    stats;
  let ratios = !ratios in
  let ccdf = Ccdf.of_samples (match ratios with [] -> [ 0. ] | r -> r) in
  let n = float_of_int (max 1 (List.length ratios)) in
  let tor_count = max 1 (Prefix.Table.length tor_seen) in
  { ratios; ccdf;
    frac_above_one = float_of_int !above /. n;
    max_ratio = List.fold_left Float.max 0. ratios;
    frac_tor_beating_median_somewhere =
      float_of_int (Prefix.Table.length beating) /. float_of_int tor_count;
    per_session_median = !per_session_median;
    busiest = !busiest }

let print ppf t =
  Format.fprintf ppf "F3L: path-change ratio of Tor prefixes vs session median (CCDF)@.";
  Format.fprintf ppf
    "  paper: >50%% of pairs above 1x; tail to >2000x; 90%% of Tor prefixes beat the median somewhere@.";
  Format.fprintf ppf
    "  measured: %.1f%% of pairs above 1x; max ratio %.0fx; %.1f%% of Tor prefixes beat the median somewhere@."
    (100. *. t.frac_above_one) t.max_ratio
    (100. *. t.frac_tor_beating_median_somewhere);
  Format.fprintf ppf "  CCDF (ratio -> %% of pairs at or above):@.";
  List.iter
    (fun x ->
       Format.fprintf ppf "    %7.1fx -> %5.1f%%@." x (100. *. Ccdf.at t.ccdf x))
    [ 0.2; 0.5; 1.; 2.; 5.; 10.; 50.; 100.; 1000. ];
  match t.busiest with
  | Some (p, s, changes) ->
      Format.fprintf ppf "  busiest: %a on %a with %d changes@." Prefix.pp p
        Update.pp_session s changes
  | None -> ()
