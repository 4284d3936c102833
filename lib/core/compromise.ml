type row = {
  f : float;
  x : int;
  analytic_l1 : float;
  analytic_l3 : float;
  monte_carlo_l1 : float;
}

type t = {
  rows : row list;
  max_abs_error : float;
}

let compute ~rng ?exec ?(fs = [ 0.01; 0.02; 0.05; 0.1 ])
    ?(xs = [ 1; 2; 4; 8; 16; 30 ]) ?(trials = 5000) ?(universe = 2400) () =
  Span.with_ ~name:"compromise.compute" @@ fun () ->
  let pool = match exec with Some p -> p | None -> Pool.default () in
  let cells =
    Array.of_list (List.concat_map (fun f -> List.map (fun x -> (f, x)) xs) fs)
  in
  (* One sibling stream per (f, x) cell: the Monte-Carlo columns are
     byte-identical at any worker count. *)
  let rows =
    Pool.map_seeded pool ~rng
      (fun rng (f, x) ->
         { f; x;
           analytic_l1 = Anonymity.compromise_probability ~f ~x;
           analytic_l3 = Anonymity.multi_guard_probability ~f ~x ~l:3;
           monte_carlo_l1 =
             Anonymity.monte_carlo_compromise ~rng ~trials ~universe ~f
               ~exposed:x })
      cells
    |> Array.to_list
  in
  let max_abs_error =
    List.fold_left
      (fun acc r -> Float.max acc (Float.abs (r.analytic_l1 -. r.monte_carlo_l1)))
      0. rows
  in
  { rows; max_abs_error }

let baseline_path_ases = 4
(* "the number of ASes crossed in the Internet is around 4, on average" *)

(* The means of the per-case probabilities, each summed from the last
   case to the first and then divided by the case count: that order and
   those operations fix the bits that sweep summaries print, so the
   static term, the same for every case, is still added once per case. *)
let exposure_based ~f ~l (exposure : As_exposure.t) =
  match Array.of_list exposure.As_exposure.extras with
  | [||] -> (0., 0.)
  | extras ->
      let prob x = Anonymity.multi_guard_probability ~f ~x ~l in
      let static = prob baseline_path_ases in
      let sum_static = ref 0. and sum_dynamic = ref 0. in
      for i = Array.length extras - 1 downto 0 do
        sum_static := !sum_static +. static;
        sum_dynamic := !sum_dynamic +. prob (baseline_path_ases + extras.(i))
      done;
      let n = float_of_int (Array.length extras) in
      (!sum_static /. n, !sum_dynamic /. n)

let print ppf t =
  Format.fprintf ppf "M1: compromise probability 1-(1-f)^(l*x)@.";
  Format.fprintf ppf "  %-6s %-4s %-12s %-12s %-14s@."
    "f" "x" "l=1" "l=3" "monte-carlo(l=1)";
  List.iter
    (fun r ->
       Format.fprintf ppf "  %-6.3f %-4d %-12.4f %-12.4f %-14.4f@."
        r.f r.x r.analytic_l1 r.analytic_l3 r.monte_carlo_l1)
    t.rows;
  Format.fprintf ppf "  max |analytic - monte-carlo| = %.4f@." t.max_abs_error
