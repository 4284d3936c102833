type t = {
  threshold : float;
  extras : int list;
  ccdf : Ccdf.t;
  frac_at_least_2 : float;
  frac_above_5 : float;
  max_extras : int;
  per_prefix_union : (Prefix.t * int) list;
}

let compute ?(threshold = 300.) ?exec (m : Measurement.t) =
  Span.with_ ~name:"as_exposure.compute" @@ fun () ->
  let pool = match exec with Some p -> p | None -> Pool.default () in
  (* Only cases where the prefix had a baseline path on the session, as in
     the paper (the baseline is "the first path used at the beginning of
     the month"). *)
  let cases =
    List.filter
      (fun (c : Measurement.cell) ->
         Measurement.is_tor m c.Measurement.key.Measurement.prefix
         && c.Measurement.baseline <> None)
      m.Measurement.cells
  in
  (* A cell that saw no update holds only its baseline, so its extra-AS
     set is empty: only the others are scanned. The scans are independent
     per cell; the union/extras accumulation below stays sequential in
     cell order, so the result matches the single-threaded one exactly. *)
  let sets =
    List.filter (fun (c : Measurement.cell) -> c.Measurement.updates > 0) cases
    |> Array.of_list
    |> Pool.map pool (fun c -> Measurement.extra_ases ~threshold c)
  in
  let extras = ref [] and next = ref 0 in
  let union = Prefix.Table.create 256 in
  List.iter
    (fun (c : Measurement.cell) ->
       let p = c.Measurement.key.Measurement.prefix in
       let set =
         if c.Measurement.updates = 0 then Asn.Set.empty
         else begin
           incr next;
           sets.(!next - 1)
         end
       in
       extras := Asn.Set.cardinal set :: !extras;
       (* A prefix enters the table at its first case, so the union's
          listing order does not depend on which sets are empty. *)
       match Prefix.Table.find_opt union p with
       | None -> Prefix.Table.add union p set
       | Some cur ->
           if not (Asn.Set.is_empty set) then
             Prefix.Table.replace union p (Asn.Set.union cur set))
    cases;
  let extras = !extras in
  let samples = List.map float_of_int extras in
  let ccdf = Ccdf.of_samples (match samples with [] -> [ 0. ] | s -> s) in
  let n = float_of_int (max 1 (List.length extras)) in
  let count f =
    float_of_int (List.fold_left (fun k e -> if f e then k + 1 else k) 0 extras)
    /. n
  in
  { threshold;
    extras;
    ccdf;
    frac_at_least_2 = count (fun e -> e >= 2);
    frac_above_5 = count (fun e -> e > 5);
    max_extras = List.fold_left max 0 extras;
    per_prefix_union =
      Prefix.Table.fold (fun p s acc -> (p, Asn.Set.cardinal s) :: acc) union [] }

let print ppf t =
  Format.fprintf ppf
    "F3R: extra ASes seen >%.0f min per (Tor prefix, session) over the month (CCDF)@."
    (t.threshold /. 60.);
  Format.fprintf ppf "  paper: >=2 extra ASes in ~50%% of cases; >5 in ~8%%; tail to ~20@.";
  Format.fprintf ppf "  measured: >=2 in %.1f%%; >5 in %.1f%%; max %d@."
    (100. *. t.frac_at_least_2) (100. *. t.frac_above_5) t.max_extras;
  Format.fprintf ppf "  CCDF (extra ASes -> %% of cases at or above):@.";
  List.iter
    (fun x ->
       Format.fprintf ppf "    %4.0f -> %5.1f%%@." x (100. *. Ccdf.at t.ccdf x))
    [ 1.; 2.; 3.; 5.; 10.; 15.; 20. ]
