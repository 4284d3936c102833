let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string ppf s = Format.fprintf ppf "\"%s\"" (json_escape s)

(* %.17g survives a float round-trip; plain integers print bare. JSON has
   no spelling for a non-finite value, and a sentinel number would lie. *)
let json_float ppf x =
  if not (Float.is_finite x) then Format.pp_print_string ppf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Format.fprintf ppf "%.0f" x
  else Format.fprintf ppf "%.17g" x

let partition samples =
  List.fold_left
    (fun (cs, gs, hs) (s : Metrics.sample) ->
      match s.value with
      | Metrics.Counter_v n -> ((s.name, n) :: cs, gs, hs)
      | Metrics.Gauge_v v -> (cs, (s.name, v) :: gs, hs)
      | Metrics.Hist_v h -> (cs, gs, (s.name, h) :: hs))
    ([], [], []) samples
  |> fun (cs, gs, hs) -> (List.rev cs, List.rev gs, List.rev hs)

let pp_fields pp ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@\n")
    pp ppf xs

let pp_hist ppf (h : Metrics.hist_view) =
  Format.fprintf ppf
    "{\"count\": %d, \"timing\": {\"sum\": %a, \"min\": %a, \"max\": %a, \
     \"p50\": %a, \"p90\": %a, \"p99\": %a}, \"buckets\": [%a]}"
    h.count json_float h.sum json_float h.min json_float h.max json_float
    (Metrics.quantile h 0.5) json_float
    (Metrics.quantile h 0.9) json_float
    (Metrics.quantile h 0.99)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (bound, n) ->
         if bound = infinity then Format.fprintf ppf "[\"+inf\", %d]" n
         else Format.fprintf ppf "[%a, %d]" json_float bound n))
    (Array.to_list h.buckets)

let metrics_json ppf samples =
  let cs, gs, hs = partition samples in
  Format.fprintf ppf "{@\n\"schema\": \"qs-obs/1\",@\n";
  Format.fprintf ppf "\"counters\": {@\n%a@\n},@\n"
    (pp_fields (fun ppf (name, n) ->
         Format.fprintf ppf "  %a: %d" json_string name n))
    cs;
  Format.fprintf ppf "\"gauges\": {@\n%a@\n},@\n"
    (pp_fields (fun ppf (name, v) ->
         match v with
         | None -> Format.fprintf ppf "  %a: null" json_string name
         | Some x -> Format.fprintf ppf "  %a: %a" json_string name json_float x))
    gs;
  Format.fprintf ppf "\"histograms\": {@\n%a@\n}@\n}@."
    (pp_fields (fun ppf (name, h) ->
         Format.fprintf ppf "  %a: %a" json_string name pp_hist h))
    hs

let metrics_json_string samples =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  metrics_json ppf samples;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let metrics_text ppf samples =
  List.iter
    (fun (s : Metrics.sample) ->
      match s.value with
      | Metrics.Counter_v n -> Format.fprintf ppf "%-32s %d@." s.name n
      | Metrics.Gauge_v None -> Format.fprintf ppf "%-32s -@." s.name
      | Metrics.Gauge_v (Some x) -> Format.fprintf ppf "%-32s %g@." s.name x
      | Metrics.Hist_v h ->
          Format.fprintf ppf
            "%-32s count=%d sum=%.6f min=%.6f max=%.6f p50=%.6f p90=%.6f \
             p99=%.6f@."
            s.name h.count h.sum h.min h.max
            (Metrics.quantile h 0.5) (Metrics.quantile h 0.9)
            (Metrics.quantile h 0.99))
    samples

let trace_json ppf (spans : Span.t list) =
  Format.fprintf ppf "[@\n%a@\n]@."
    (pp_fields (fun ppf (s : Span.t) ->
         Format.fprintf ppf
           "  {\"name\": %a, \"path\": %a, \"depth\": %d, \"domain\": %d, \
            \"start_s\": %a, \"dur_s\": %a, \"alloc_bytes\": %a}"
           json_string s.name json_string s.path s.depth s.domain json_float
           s.start json_float s.dur json_float s.alloc_bytes))
    spans
