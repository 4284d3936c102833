type t = {
  ratios : float list;
  ccdf : Ccdf.t;
  frac_above_one : float;
  max_ratio : float;
  frac_tor_beating_median_somewhere : float;
  per_session_median : (Update.session_id * float) list;
  busiest : (Prefix.t * Update.session_id * int) option;
}

module Session_table = Hashtbl.Make (struct
    type t = Update.session_id

    let equal = Update.session_equal

    let hash (s : t) =
      (Hashtbl.hash s.Update.collector * 31) + Asn.hash s.Update.peer
  end)

(* One session's statistics, computed independently of every other
   session — the parallel unit of [compute]. *)
type session_stats = {
  s_id : Update.session_id;
  s_median : float;
  s_tor : (Prefix.t * float * int) list;   (* (prefix, ratio, changes) *)
}

(* [Stats.median] of the cells' path-change counts, without boxing: the
   counts sort as ints, and [Stats.percentile]'s interpolation is applied
   to the two middle values, so the result is the same float. *)
let median_changes cells =
  let counts = Array.make (List.length cells) 0 in
  List.iteri (fun i c -> counts.(i) <- c.Measurement.path_changes) cells;
  Array.sort Int.compare counts;
  let n = Array.length counts in
  let rank = 0.5 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  let a = float_of_int counts.(lo) and b = float_of_int counts.(hi) in
  a +. (frac *. (b -. a))

let compute ?exec (m : Measurement.t) =
  Span.with_ ~name:"path_changes.compute" @@ fun () ->
  let pool = match exec with Some p -> p | None -> Pool.default () in
  (* Group cells by session: one lookup per cell. *)
  let by_session = Session_table.create 128 in
  List.iter
    (fun (c : Measurement.cell) ->
       let id = c.Measurement.key.Measurement.session in
       match Session_table.find by_session id with
       | cells -> cells := c :: !cells
       | exception Not_found -> Session_table.add by_session id (ref [ c ]))
    m.Measurement.cells;
  (* Canonical session order: results no longer depend on hash-table
     iteration order, so the reduce below is stable at any worker count. *)
  let sessions =
    Session_table.fold (fun id cells acc -> (id, !cells) :: acc) by_session []
    |> List.sort (fun (a, _) (b, _) -> Update.session_compare a b)
    |> Array.of_list
  in
  let stats =
    Pool.map pool
      (fun (_, cells) ->
         match cells with
         | [] -> None
         | (first : Measurement.cell) :: _ ->
             let session = first.Measurement.key.Measurement.session in
             let median = median_changes cells in
             (* Ratios are only defined where the session's median is
                nonzero; the paper's sessions all saw background churn. We
                floor the median at 1 change to keep ratios finite, which
                only makes the comparison harder for Tor prefixes. *)
             let denom = Float.max 1. median in
             let tor =
               List.filter_map
                 (fun (c : Measurement.cell) ->
                    let p = c.Measurement.key.Measurement.prefix in
                    if Measurement.is_tor m p then
                      Some (p,
                            float_of_int c.Measurement.path_changes /. denom,
                            c.Measurement.path_changes)
                    else None)
                 cells
             in
             Some { s_id = session; s_median = median; s_tor = tor })
      sessions
  in
  let ratios = ref [] in
  let per_session_median = ref [] in
  let beating = Prefix.Table.create 256 in   (* Tor prefix -> beat somewhere *)
  let tor_seen = Prefix.Table.create 256 in
  let busiest = ref None in
  Array.iter
    (function
      | None -> ()
      | Some s ->
          per_session_median := (s.s_id, s.s_median) :: !per_session_median;
          List.iter
            (fun (p, r, changes) ->
               Prefix.Table.replace tor_seen p ();
               ratios := r :: !ratios;
               if r > 1. then Prefix.Table.replace beating p ();
               match !busiest with
               | Some (_, _, best) when best >= changes -> ()
               | _ -> busiest := Some (p, s.s_id, changes))
            s.s_tor)
    stats;
  let ratios = !ratios in
  let ccdf = Ccdf.of_samples (match ratios with [] -> [ 0. ] | r -> r) in
  let n = float_of_int (max 1 (List.length ratios)) in
  let above = List.length (List.filter (fun r -> r > 1.) ratios) in
  let tor_count = max 1 (Prefix.Table.length tor_seen) in
  { ratios; ccdf;
    frac_above_one = float_of_int above /. n;
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
