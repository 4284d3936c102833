(* Tests for qs_analysis: stats, CCDFs, correlation, anonymity metrics. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_floatish = Alcotest.(check (float 1e-3))

(* ---- Stats ----------------------------------------------------------- *)

let test_stats_basics () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "mean" 3. (Stats.mean xs);
  check_float "median" 3. (Stats.median xs);
  check_float "variance" 2. (Stats.variance xs);
  check_float "min" 1. (Stats.minimum xs);
  check_float "max" 5. (Stats.maximum xs)

let test_stats_percentile_interpolation () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  check_float "p0" 10. (Stats.percentile xs 0.);
  check_float "p100" 40. (Stats.percentile xs 100.);
  check_float "p50 interpolated" 25. (Stats.percentile xs 50.);
  check_float "p75" 32.5 (Stats.percentile xs 75.)

let test_stats_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty sample")
    (fun () -> ignore (Stats.mean []));
  Alcotest.check_raises "bad percentile"
    (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile [ 1. ] 150.))

let test_stats_singleton () =
  check_float "singleton percentile" 7. (Stats.percentile [ 7. ] 50.)

(* ---- Ccdf ------------------------------------------------------------ *)

let test_ccdf_basics () =
  let c = Ccdf.of_samples [ 1.; 2.; 2.; 3.; 10. ] in
  check_int "size" 5 (Ccdf.size c);
  check_float "at -inf" 1.0 (Ccdf.at c 0.);
  check_float "at 1" 1.0 (Ccdf.at c 1.);
  check_float "at 2" 0.8 (Ccdf.at c 2.);
  check_float "at 2.5" 0.4 (Ccdf.at c 2.5);
  check_float "at 10" 0.2 (Ccdf.at c 10.);
  check_float "beyond" 0.0 (Ccdf.at c 11.)

let test_ccdf_points_monotone () =
  let c = Ccdf.of_samples [ 5.; 1.; 3.; 3.; 8.; 0.5 ] in
  let pts = Ccdf.points c in
  let rec decreasing = function
    | (_, p1) :: ((_, p2) :: _ as rest) -> p1 >= p2 && decreasing rest
    | [ _ ] | [] -> true
  in
  check_bool "ccdf non-increasing" true (decreasing pts);
  check_int "distinct xs" 5 (List.length pts)

let test_ccdf_quantile_where () =
  let c = Ccdf.of_samples [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  (match Ccdf.quantile_where c 0.2 with
   | Some x -> check_float "tail boundary" 9. x
   | None -> Alcotest.fail "expected a quantile")

(* When q is below the tail mass at the maximum, the maximum sample is
   the tightest answer — never [None] on non-empty samples. *)
let test_ccdf_quantile_below_tail_mass () =
  let c = Ccdf.of_samples [ 1.; 2.; 3.; 4. ] in
  (* at c 4. = 0.25, so q = 0.1 is below the tail mass at the max *)
  (match Ccdf.quantile_where c 0.1 with
   | Some x -> check_float "max sample" 4. x
   | None -> Alcotest.fail "q below tail mass must yield the max sample");
  (match Ccdf.quantile_where c 0.25 with
   | Some x -> check_float "exact tail boundary" 4. x
   | None -> Alcotest.fail "expected a quantile");
  (match Ccdf.quantile_where c 0.5 with
   | Some x -> check_float "median tail" 3. x
   | None -> Alcotest.fail "expected a quantile");
  match Ccdf.quantile_where c 0. with
  | Some x -> check_float "q = 0 yields the max" 4. x
  | None -> Alcotest.fail "q = 0 must yield the max sample"

(* The remaining boundaries of the documented contract ("the smallest
   sample with at <= q"): q >= 1 is satisfied by every sample, so the
   minimum comes back; all-equal samples put the whole mass at one value,
   so any q < 1 falls back to that value (which is also the max); a
   singleton answers every q with its only sample. *)
let test_ccdf_quantile_boundaries () =
  let expect name want q c =
    match Ccdf.quantile_where c q with
    | Some x -> check_float name want x
    | None -> Alcotest.fail (name ^ ": expected a quantile")
  in
  let c = Ccdf.of_samples [ 1.; 2.; 3.; 4. ] in
  expect "q = 1 yields the min" 1. 1.0 c;
  expect "q > 1 yields the min" 1. 1.5 c;
  let flat = Ccdf.of_samples [ 5.; 5.; 5. ] in
  expect "all-equal, q = 1" 5. 1.0 flat;
  expect "all-equal, q = 0.5" 5. 0.5 flat;
  expect "all-equal, q = 0" 5. 0. flat;
  let one = Ccdf.of_samples [ 7. ] in
  expect "singleton, q = 1" 7. 1.0 one;
  expect "singleton, q = 0.5" 7. 0.5 one;
  expect "singleton, q = 0" 7. 0. one

(* Regression: [of_samples []] used to raise, forcing callers (F3L/F3R)
   to pad a phantom [0.] sample — which made a quiet measurement report
   [at 0. = 1.0] instead of an empty tail. The empty CCDF must be total:
   zero size, zero mass everywhere, no points, no quantile. *)
let test_ccdf_empty_total () =
  let c = Ccdf.of_samples [] in
  check_int "size" 0 (Ccdf.size c);
  check_float "at 0" 0. (Ccdf.at c 0.);
  check_float "at -1" 0. (Ccdf.at c (-1.));
  check_float "at 1e9" 0. (Ccdf.at c 1e9);
  check_bool "no points" true (Ccdf.points c = []);
  check_bool "eval_at carries zeros" true
    (Ccdf.eval_at c [ 1.; 2. ] = [ (1., 0.); (2., 0.) ]);
  (match Ccdf.quantile_where c 0.5 with
   | None -> ()
   | Some _ -> Alcotest.fail "empty sample must have no quantile");
  match Ccdf.quantile_where c 0. with
  | None -> ()
  | Some _ -> Alcotest.fail "empty sample must have no quantile at q = 0"

let prop_ccdf_in_unit_interval =
  QCheck.Test.make ~name:"ccdf values in [0,1]" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 50) (map Float.abs float)) float)
    (fun (xs, q) ->
       let c = Ccdf.of_samples xs in
       let v = Ccdf.at c q in
       v >= 0. && v <= 1.)

(* The CCDF sorts only its non-+0 samples; the reference sorts them all.
   Without nan or -0 every float of the two must be equal, bit for bit. *)
let ccdf_sample ~neg_zero =
  let open QCheck.Gen in
  frequency
    ([ (6, return 0.);
       (3, map float_of_int (int_range (-3) 40));
       (2, float_range (-5.) 5.);
       (1, oneofl [ infinity; neg_infinity; max_float; -.min_float; 1e-300 ]) ]
     @ if neg_zero then [ (3, return (-0.)) ] else [])
  |> map (fun x -> if (not neg_zero) && x = 0. then 0. else x)

let ccdf_probes xs = [ 0.; -0.; 1.; -1.; 0.5; 1e9; infinity; neg_infinity ] @ xs

let bits_of_at c probes =
  List.map (fun x -> Int64.bits_of_float (Ccdf.at c x)) probes

let prop_ccdf_reference =
  QCheck.Test.make ~name:"ccdf = sort-based reference, bit for bit" ~count:300
    (QCheck.make ~print:QCheck.Print.(list float)
       QCheck.Gen.(list_size (int_range 0 80) (ccdf_sample ~neg_zero:false)))
    (fun xs ->
       let c = Ccdf.of_samples xs and r = Analysis_reference.Ccdf.of_samples xs in
       let bits_points l =
         List.map (fun (x, p) -> (Int64.bits_of_float x, Int64.bits_of_float p)) l
       in
       let probes = ccdf_probes xs in
       Ccdf.size c = Analysis_reference.Ccdf.size r
       && bits_points (Ccdf.points c) = bits_points (Analysis_reference.Ccdf.points r)
       && bits_of_at c probes
          = List.map
              (fun x -> Int64.bits_of_float (Analysis_reference.Ccdf.at r x))
              probes)

(* With -0 among the samples the two may order +0 and -0 apart, but
   every size and tail mass agrees. *)
let prop_ccdf_reference_neg_zero =
  QCheck.Test.make ~name:"ccdf with -0: size and at = reference" ~count:300
    (QCheck.make ~print:QCheck.Print.(list float)
       QCheck.Gen.(list_size (int_range 0 80) (ccdf_sample ~neg_zero:true)))
    (fun xs ->
       let c = Ccdf.of_samples xs and r = Analysis_reference.Ccdf.of_samples xs in
       let probes = ccdf_probes xs in
       Ccdf.size c = Analysis_reference.Ccdf.size r
       && bits_of_at c probes
          = List.map
              (fun x -> Int64.bits_of_float (Analysis_reference.Ccdf.at r x))
              probes)

(* ---- Correlation ------------------------------------------------------ *)

let test_pearson_perfect () =
  let a = [| 1.; 2.; 3.; 4. |] in
  let b = [| 2.; 4.; 6.; 8. |] in
  check_floatish "perfect positive" 1.0 (Correlation.pearson a b);
  let c = [| 8.; 6.; 4.; 2. |] in
  check_floatish "perfect negative" (-1.0) (Correlation.pearson a c)

let test_pearson_constant_series () =
  check_float "constant gives 0" 0.
    (Correlation.pearson [| 1.; 1.; 1. |] [| 1.; 2.; 3. |])

let test_pearson_rejects () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Correlation: length mismatch")
    (fun () -> ignore (Correlation.pearson [| 1. |] [| 1.; 2. |]))

let test_spearman_monotone () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  let b = [| 1.; 8.; 27.; 64.; 125. |] in
  check_floatish "monotone nonlinear = 1" 1.0 (Correlation.spearman a b);
  (* ties handled with average ranks *)
  let c = [| 1.; 1.; 2.; 3.; 3. |] in
  check_bool "ties fine" true (Correlation.spearman c c > 0.999)

let test_best_lag_recovers_shift () =
  let n = 60 in
  let base = Array.init n (fun i -> sin (float_of_int i /. 3.) +. (0.1 *. float_of_int (i mod 5))) in
  let shifted = Array.init n (fun i -> if i < 4 then 0. else base.(i - 4)) in
  let lag, r = Correlation.best_lag shifted base ~max_lag:8 in
  check_int "recovers the 4-bin shift" 4 lag;
  check_bool "high correlation at best lag" true (r > 0.95)

let test_match_score_picks_right () =
  let target = Array.init 50 (fun i -> float_of_int ((i * 7) mod 13)) in
  let decoy1 = Array.init 50 (fun i -> float_of_int ((i * 3) mod 11)) in
  let decoy2 = Array.init 50 (fun i -> float_of_int ((i * 5) mod 17)) in
  let idx = Correlation.match_score target ~target:[ decoy1; target; decoy2 ] ~max_lag:3 in
  check_int "identifies the matching flow" 1 idx

let prop_pearson_symmetric =
  let gen =
    QCheck.Gen.(list_size (int_range 2 30) (map (fun x -> Float.rem x 100.) float))
  in
  QCheck.Test.make ~name:"pearson symmetric and bounded" ~count:200
    (QCheck.make (QCheck.Gen.pair gen gen))
    (fun (xs, ys) ->
       let n = min (List.length xs) (List.length ys) in
       QCheck.assume (n >= 2);
       let a = Array.of_list (List.filteri (fun i _ -> i < n) xs) in
       let b = Array.of_list (List.filteri (fun i _ -> i < n) ys) in
       let r1 = Correlation.pearson a b and r2 = Correlation.pearson b a in
       Float.abs (r1 -. r2) < 1e-9 && r1 >= -1.0000001 && r1 <= 1.0000001)

(* ---- Anonymity -------------------------------------------------------- *)

let test_compromise_formula () =
  check_float "x=0 is 0" 0. (Anonymity.compromise_probability ~f:0.1 ~x:0);
  check_float "f=1 is 1" 1. (Anonymity.compromise_probability ~f:1.0 ~x:1);
  check_floatish "1-(1-0.1)^2" 0.19 (Anonymity.compromise_probability ~f:0.1 ~x:2);
  check_bool "monotone in x" true
    (Anonymity.compromise_probability ~f:0.05 ~x:10
     > Anonymity.compromise_probability ~f:0.05 ~x:5)

let test_multi_guard_amplification () =
  let single = Anonymity.compromise_probability ~f:0.05 ~x:4 in
  let multi = Anonymity.multi_guard_probability ~f:0.05 ~x:4 ~l:3 in
  check_bool "3 guards amplify" true (multi > single);
  check_floatish "l*x exponent" (Anonymity.compromise_probability ~f:0.05 ~x:12) multi

let test_compromise_rejects () =
  check_bool "bad f" true
    (try ignore (Anonymity.compromise_probability ~f:1.5 ~x:1); false
     with Invalid_argument _ -> true);
  check_bool "bad x" true
    (try ignore (Anonymity.compromise_probability ~f:0.5 ~x:(-1)); false
     with Invalid_argument _ -> true)

let test_monte_carlo_agrees () =
  let rng = Rng.of_int 42 in
  let f = 0.05 and exposed = 8 in
  let mc =
    Anonymity.monte_carlo_compromise ~rng ~trials:20_000 ~universe:500 ~f ~exposed
  in
  let analytic = Anonymity.compromise_probability ~f ~x:exposed in
  check_bool "within 2 points" true (Float.abs (mc -. analytic) < 0.02)

let test_time_to_compromise () =
  let rng = Rng.of_int 7 in
  (match Anonymity.time_to_compromise ~rng ~per_instance:1.0 ~max_instances:10 with
   | Some 1 -> ()
   | _ -> Alcotest.fail "certain compromise must hit instance 1");
  check_bool "never with p=0" true
    (Anonymity.time_to_compromise ~rng ~per_instance:0.0 ~max_instances:100 = None)

let test_entropy () =
  check_float "uniform 4 = 2 bits" 2. (Anonymity.entropy [ 0.25; 0.25; 0.25; 0.25 ]);
  check_float "deterministic = 0" 0. (Anonymity.entropy [ 1.0 ]);
  check_float "set entropy" 3. (Anonymity.anonymity_set_entropy 8);
  check_bool "bad distribution" true
    (try ignore (Anonymity.entropy [ 0.5 ]); false
     with Invalid_argument _ -> true)

let prop_compromise_monotone =
  QCheck.Test.make ~name:"compromise probability monotone in f and x" ~count:300
    QCheck.(triple (int_bound 100) (int_bound 30) (int_bound 30))
    (fun (fi, x1, x2) ->
       let f = float_of_int fi /. 100. in
       let lo = min x1 x2 and hi = max x1 x2 in
       let p_lo = Anonymity.compromise_probability ~f ~x:lo in
       let p_hi = Anonymity.compromise_probability ~f ~x:hi in
       p_lo >= 0. && p_hi <= 1. && p_lo <= p_hi +. 1e-12)

let prop_multi_guard_amplifies =
  QCheck.Test.make ~name:"more guards never reduce compromise" ~count:300
    QCheck.(triple (int_range 1 99) (int_range 0 20) (int_range 1 9))
    (fun (fi, x, l) ->
       let f = float_of_int fi /. 100. in
       Anonymity.multi_guard_probability ~f ~x ~l
       >= Anonymity.compromise_probability ~f ~x -. 1e-12)

let prop_trace_acked_consistent =
  (* the per-bin ACK increments always sum to the running-max ACK *)
  QCheck.Test.make ~name:"acked series sums to max ack" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (pair (int_bound 1000) (int_bound 100000)))
    (fun events ->
       let t = Trace.create () in
       List.iteri
         (fun i (dt, ack) ->
            Trace.tap t
              (float_of_int (i * 100 + dt) /. 100.)
              { Netsim.src = Ipv4.of_int_trunc 1; dst = Ipv4.of_int_trunc 2;
                sport = 1; dport = 2; seq = 0; ack; payload = 0; wnd = 0;
                syn = false; fin = false })
         events;
       let duration = float_of_int (List.length events) +. 10. in
       let series = Trace.bytes_acked_series t ~bin:1.0 ~duration in
       let total = Array.fold_left ( +. ) 0. series in
       Float.abs (total -. float_of_int (Trace.max_ack t)) < 0.5)

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)

let () =
  Alcotest.run "qs_analysis"
    [ ("stats",
       [ Alcotest.test_case "basics" `Quick test_stats_basics;
         Alcotest.test_case "percentile interpolation" `Quick
           test_stats_percentile_interpolation;
         Alcotest.test_case "rejects" `Quick test_stats_rejects;
         Alcotest.test_case "singleton" `Quick test_stats_singleton ]);
      ("ccdf",
       [ Alcotest.test_case "basics" `Quick test_ccdf_basics;
         Alcotest.test_case "monotone points" `Quick test_ccdf_points_monotone;
         Alcotest.test_case "quantile_where" `Quick test_ccdf_quantile_where;
         Alcotest.test_case "quantile below tail mass" `Quick
           test_ccdf_quantile_below_tail_mass;
         Alcotest.test_case "quantile boundaries" `Quick
           test_ccdf_quantile_boundaries;
         Alcotest.test_case "empty sample is total" `Quick
           test_ccdf_empty_total ]
       @ qsuite
           [ prop_ccdf_in_unit_interval; prop_ccdf_reference;
             prop_ccdf_reference_neg_zero ]);
      ("correlation",
       [ Alcotest.test_case "pearson perfect" `Quick test_pearson_perfect;
         Alcotest.test_case "constant series" `Quick test_pearson_constant_series;
         Alcotest.test_case "rejects" `Quick test_pearson_rejects;
         Alcotest.test_case "spearman monotone" `Quick test_spearman_monotone;
         Alcotest.test_case "best lag" `Quick test_best_lag_recovers_shift;
         Alcotest.test_case "match score" `Quick test_match_score_picks_right ]
       @ qsuite [ prop_pearson_symmetric; prop_trace_acked_consistent ]);
      ("anonymity",
       [ Alcotest.test_case "compromise formula" `Quick test_compromise_formula;
         Alcotest.test_case "multi-guard amplification" `Quick
           test_multi_guard_amplification;
         Alcotest.test_case "rejects" `Quick test_compromise_rejects;
         Alcotest.test_case "monte carlo agrees" `Quick test_monte_carlo_agrees;
         Alcotest.test_case "time to compromise" `Quick test_time_to_compromise;
         Alcotest.test_case "entropy" `Quick test_entropy ]
       @ qsuite [ prop_compromise_monotone; prop_multi_guard_amplifies ]) ]
