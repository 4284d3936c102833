(* The sort-based CCDF, F3L, F3R and M1 computations that lib/ replaced
   with linear passes, kept as test oracles: every float the shipped
   analyses return must equal these bit for bit, lists in the same order.
   Each sorts or scans every sample and cell, zeros and untouched cells
   included. *)

module Ccdf = struct
  type t = { sorted : float array }

  let of_samples xs =
    let sorted = Array.of_list xs in
    Array.sort Float.compare sorted;
    { sorted }

  let size t = Array.length t.sorted

  let lower_bound t x =
    let lo = ref 0 and hi = ref (Array.length t.sorted) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.sorted.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  let at t x =
    let n = Array.length t.sorted in
    if n = 0 then 0. else float_of_int (n - lower_bound t x) /. float_of_int n

  let points t =
    let n = Array.length t.sorted in
    let rec distinct i acc =
      if i >= n then List.rev acc
      else if i > 0 && t.sorted.(i) = t.sorted.(i - 1) then distinct (i + 1) acc
      else distinct (i + 1) ((t.sorted.(i), at t t.sorted.(i)) :: acc)
    in
    distinct 0 []
end

(* F3L, grouping every cell by session and sorting each session's counts,
   zeros included. *)
type f3l = {
  ratios : float list;
  ccdf : Ccdf.t;
  frac_above_one : float;
  max_ratio : float;
  frac_tor_beating_median_somewhere : float;
  per_session_median : (Update.session_id * float) list;
  busiest : (Prefix.t * Update.session_id * int) option;
}

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

let path_changes ?exec (m : Measurement.t) =
  let pool = match exec with Some p -> p | None -> Pool.default () in
  let by_session = Update.Session_table.create 128 in
  List.iter
    (fun (c : Measurement.cell) ->
       let id = c.Measurement.key.Measurement.session in
       match Update.Session_table.find by_session id with
       | cells -> cells := c :: !cells
       | exception Not_found -> Update.Session_table.add by_session id (ref [ c ]))
    m.Measurement.cells;
  let sessions =
    Update.Session_table.fold (fun id cells acc -> (id, !cells) :: acc) by_session []
    |> List.sort (fun (a, _) (b, _) -> Update.session_compare a b)
    |> Array.of_list
  in
  let stats =
    Pool.map pool
      (fun (_, cells) ->
         match cells with
         | [] -> None
         | (first : Measurement.cell) :: _ ->
             let median = median_changes cells in
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
             Some (first.Measurement.key.Measurement.session, median, tor))
      sessions
  in
  let ratios = ref [] and per_session_median = ref [] and busiest = ref None in
  let beating = Prefix.Table.create 256 and tor_seen = Prefix.Table.create 256 in
  Array.iter
    (function
      | None -> ()
      | Some (id, median, tor) ->
          per_session_median := (id, median) :: !per_session_median;
          List.iter
            (fun (p, r, changes) ->
               Prefix.Table.replace tor_seen p ();
               ratios := r :: !ratios;
               if r > 1. then Prefix.Table.replace beating p ();
               match !busiest with
               | Some (_, _, best) when best >= changes -> ()
               | _ -> busiest := Some (p, id, changes))
            tor)
    stats;
  let ratios = !ratios in
  let n = float_of_int (max 1 (List.length ratios)) in
  let above = List.length (List.filter (fun r -> r > 1.) ratios) in
  { ratios;
    ccdf = Ccdf.of_samples (match ratios with [] -> [ 0. ] | r -> r);
    frac_above_one = float_of_int above /. n;
    max_ratio = List.fold_left Float.max 0. ratios;
    frac_tor_beating_median_somewhere =
      float_of_int (Prefix.Table.length beating)
      /. float_of_int (max 1 (Prefix.Table.length tor_seen));
    per_session_median = !per_session_median;
    busiest = !busiest }

(* F3R, scanning every Tor cell with a baseline and taking the union with
   every set, empty ones included. *)
type f3r = {
  extras : int list;
  e_ccdf : Ccdf.t;
  frac_at_least_2 : float;
  frac_above_5 : float;
  max_extras : int;
  per_prefix_union : (Prefix.t * int) list;
}

let as_exposure ?(threshold = 300.) ?exec (m : Measurement.t) =
  let pool = match exec with Some p -> p | None -> Pool.default () in
  let cases =
    m.Measurement.cells
    |> List.filter (fun (c : Measurement.cell) ->
        Measurement.is_tor m c.Measurement.key.Measurement.prefix
        && c.Measurement.baseline <> None)
    |> Array.of_list
  in
  let sets = Pool.map pool (fun c -> Measurement.extra_ases ~threshold c) cases in
  let extras = ref [] in
  let union = Prefix.Table.create 256 in
  Array.iteri
    (fun i (c : Measurement.cell) ->
       let p = c.Measurement.key.Measurement.prefix in
       extras := Asn.Set.cardinal sets.(i) :: !extras;
       let cur = Option.value ~default:Asn.Set.empty (Prefix.Table.find_opt union p) in
       Prefix.Table.replace union p (Asn.Set.union cur sets.(i)))
    cases;
  let extras = !extras in
  let samples = List.map float_of_int extras in
  let n = float_of_int (max 1 (List.length extras)) in
  let count f = float_of_int (List.length (List.filter f extras)) /. n in
  { extras;
    e_ccdf = Ccdf.of_samples (match samples with [] -> [ 0. ] | s -> s);
    frac_at_least_2 = count (fun e -> e >= 2);
    frac_above_5 = count (fun e -> e > 5);
    max_extras = List.fold_left max 0 extras;
    per_prefix_union =
      Prefix.Table.fold (fun p s acc -> (p, Asn.Set.cardinal s) :: acc) union [] }

(* M1 over the measured extras, through two N-element float lists; a
   baseline path crosses 4 ASes. *)
let exposure_based ~f ~l extras =
  let probs_static, probs_dynamic =
    List.fold_left
      (fun (s, d) extra ->
         ( Anonymity.multi_guard_probability ~f ~x:4 ~l :: s,
           Anonymity.multi_guard_probability ~f
             ~x:(4 + extra) ~l
           :: d ))
      ([], []) extras
  in
  match probs_static with
  | [] -> (0., 0.)
  | _ -> (Stats.mean probs_static, Stats.mean probs_dynamic)
