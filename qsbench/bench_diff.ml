(* bench_diff — compares two qs-bench/1 results files under the
   regression bounds that BENCHMARK.json fixes.

   Usage: bench_diff.exe BASE.json NEW.json [--benchmark BENCHMARK.json]

   One row per (workload, end-to-end metric) present in both files: the
   base value (the median qsbench reports) with the spread of its
   samples, the new value, the ratio new/base shown with its base, and a
   label:
   - unresolved: the base samples spread (quartile distance over median)
     wider than the bound, so a move of that size cannot be told from
     noise — unless every new sample beats every base sample, which
     counts as improved;
   - regressed / improved: the value moved the wrong / right way by more
     than the bound;
   - unchanged: otherwise.
   The exit code is 1 when any row regressed. *)

type bound = { unit : string; lower_is_better : bool; bound : float }

let bounds path =
  let doc = Qsjson.of_file path in
  List.map
    (fun m ->
       ( Qsjson.to_str (Qsjson.field "name" m),
         { unit = Qsjson.to_str (Qsjson.field "unit" m);
           lower_is_better =
             String.equal (Qsjson.to_str (Qsjson.field "better" m)) "lower";
           bound = Qsjson.to_num (Qsjson.field "bound" m) } ))
    (Qsjson.to_list (Qsjson.field "end_to_end" doc))

let workloads path =
  let doc = Qsjson.of_file path in
  (match Qsjson.member "schema" doc with
   | Some (Qsjson.Str "qs-bench/1") -> ()
   | _ -> failwith (path ^ ": not a qs-bench/1 file"));
  List.map
    (fun w -> (Qsjson.to_str (Qsjson.field "name" w), Qsjson.field "metrics" w))
    (Qsjson.to_list (Qsjson.field "workloads" doc))

let samples metrics name =
  match Qsjson.member name metrics with
  | None -> None
  | Some m -> (
      match List.map Qsjson.to_num (Qsjson.to_list (Qsjson.field "samples" m)) with
      | [] -> None
      | l -> Some (Qsjson.to_num (Qsjson.field "value" m), l))

let label b (mb, base) (mf, fresh) =
  let better x y = if b.lower_is_better then x < y else x > y in
  let worse = if b.lower_is_better then (mf /. mb) -. 1. else 1. -. (mf /. mb) in
  let all_better =
    List.for_all (fun f -> List.for_all (fun x -> better f x) base) fresh
  in
  if Summary.spread base > b.bound then
    if all_better then "improved" else "unresolved"
  else if worse > b.bound then "regressed"
  else if worse < -.b.bound then "improved"
  else "unchanged"

let () =
  let files = ref [] and benchmark = ref "BENCHMARK.json" in
  Arg.parse
    [ ("--benchmark", Arg.Set_string benchmark, "FILE bounds (default BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    "bench_diff BASE.json NEW.json [--benchmark BENCHMARK.json]";
  let base_file, new_file =
    match !files with
    | [ a; b ] -> (a, b)
    | _ -> prerr_endline "bench_diff: need BASE.json and NEW.json"; exit 2
  in
  let bounds = bounds !benchmark in
  let base = workloads base_file and fresh = workloads new_file in
  let regressed = ref 0 in
  Printf.printf "%-14s %-13s %14s %8s %14s %-26s %6s  %s\n" "workload" "metric"
    "base" "spread" "new" "ratio (of base)" "bound" "verdict";
  List.iter
    (fun (w, base_metrics) ->
       match List.assoc_opt w fresh with
       | None -> Printf.printf "%-14s (missing from %s)\n" w new_file
       | Some new_metrics ->
           List.iter
             (fun (name, b) ->
                match (samples base_metrics name, samples new_metrics name) with
                | Some ((mb, bs) as base), Some ((mn, _) as fresh) ->
                    let verdict = label b base fresh in
                    if String.equal verdict "regressed" then incr regressed;
                    Printf.printf "%-14s %-13s %12.6g %-2s %7.1f%% %12.6g %-2s %-26s %5.0f%%  %s\n"
                      w name mb b.unit (100. *. Summary.spread bs) mn b.unit
                      (Printf.sprintf "x%.3f (of %.6g %s)" (mn /. mb) mb b.unit)
                      (100. *. b.bound) verdict
                | _ -> Printf.printf "%-14s %-13s (no samples)\n" w name)
             bounds)
    base;
  exit (if !regressed > 0 then 1 else 0)
