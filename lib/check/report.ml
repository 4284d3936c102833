let json_string = Export.json_string

let json_list pp ppf xs =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       pp)
    xs

let conformance ~json ppf ~observed violations =
  if json then
    Format.fprintf ppf
      "{\"suite\":\"conform\",\"observed\":%d,\"ok\":%b,\"violations\":%a}@."
      observed (violations = [])
      (json_list (fun ppf (v : Conformance.violation) ->
           Format.fprintf ppf "{\"invariant\":%a,\"message\":%a}" json_string
             v.Conformance.invariant json_string v.Conformance.message))
      violations
  else begin
    Format.fprintf ppf "conformance: %d updates observed, %d violations@."
      observed (List.length violations);
    List.iter
      (fun v -> Format.fprintf ppf "  %a@." Conformance.pp_violation v)
      violations
  end

let differential ~json ppf outcomes =
  if json then
    Format.fprintf ppf "{\"suite\":\"diff\",\"ok\":%b,\"pairs\":%a}@."
      (Differential.all_ok outcomes)
      (json_list (fun ppf (o : Differential.outcome) ->
           Format.fprintf ppf
             "{\"seed\":%d,\"pair\":%a,\"experiment\":%a,\"ok\":%b%t}"
             o.Differential.seed json_string o.Differential.pair json_string
             o.Differential.experiment o.Differential.ok
             (fun ppf ->
                match o.Differential.detail with
                | Some d when not o.Differential.ok ->
                    Format.fprintf ppf ",\"detail\":%a" json_string d
                | _ -> ())))
      outcomes
  else begin
    let bad = List.filter (fun o -> not o.Differential.ok) outcomes in
    Format.fprintf ppf "differential: %d pair checks, %d divergent@."
      (List.length outcomes) (List.length bad);
    List.iter
      (fun o -> Format.fprintf ppf "  %a@." Differential.pp_outcome o)
      outcomes
  end

let fuzz ~json ppf suites =
  if json then
    Format.fprintf ppf "{\"suite\":\"fuzz\",\"ok\":%b,\"targets\":%a}@."
      (List.for_all (fun (_, s) -> Fuzz.ok s) suites)
      (json_list (fun ppf (name, (s : Fuzz.stats)) ->
           Format.fprintf ppf
             "{\"target\":%a,\"seeds\":%d,\"cases\":%d,\"rejected\":%d,\
              \"violations\":%a}"
             json_string name s.Fuzz.seeds s.Fuzz.cases s.Fuzz.rejected
             (json_list (fun ppf (v : Fuzz.violation) ->
                  Format.fprintf ppf
                    "{\"case\":%a,\"seed\":%d,\"detail\":%a}" json_string
                    v.Fuzz.case v.Fuzz.seed json_string v.Fuzz.detail))
             s.Fuzz.violations))
      suites
  else
    List.iter
      (fun (name, (s : Fuzz.stats)) ->
         Format.fprintf ppf "fuzz %s: %a@." name Fuzz.pp_stats s;
         List.iter
           (fun v -> Format.fprintf ppf "  %a@." Fuzz.pp_violation v)
           s.Fuzz.violations)
      suites
