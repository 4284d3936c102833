type severity = Info | Warn | Error

let severity_to_string = function
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warn -> 1 | Error -> 2

let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

type rule = {
  code : string;
  slug : string;
  severity : severity;
  doc : string;
  explain : string;
}

let rule_id r = r.code ^ "-" ^ r.slug

let matches_rule r selector =
  let s = String.lowercase_ascii selector in
  String.equal s (String.lowercase_ascii r.code)
  || String.equal s r.slug
  || String.equal s (String.lowercase_ascii (rule_id r))

type t = {
  rule : rule;
  message : string;
  context : (string * string) list;
}

let make rule ?(context = []) message = { rule; message; context }

let msgf rule ?context fmt = Format.kasprintf (make rule ?context) fmt

let count sev diags =
  List.length (List.filter (fun d -> d.rule.severity = sev) diags)

let errors = count Error
let warnings = count Warn

let pp ppf d =
  Format.fprintf ppf "%s %s %s: %s" d.rule.code d.rule.slug
    (severity_to_string d.rule.severity) d.message;
  match d.context with
  | [] -> ()
  | ctx ->
      Format.fprintf ppf " (%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (k, v) -> Format.fprintf ppf "%s=%s" k v))
        ctx

let report_text ppf diags =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) diags;
  Format.fprintf ppf "lint: %d error(s), %d warning(s), %d info(s)@."
    (errors diags) (warnings diags) (count Info diags)

(* ---- JSON ------------------------------------------------------------ *)

let json_string = Export.json_string

let json_diag ppf d =
  Format.fprintf ppf
    "{\"code\":%a,\"slug\":%a,\"severity\":%a,\"message\":%a,\"context\":{%a}}"
    json_string d.rule.code json_string d.rule.slug
    json_string (severity_to_string d.rule.severity)
    json_string d.message
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (k, v) -> Format.fprintf ppf "%a:%a" json_string k json_string v))
    d.context

let report_json ppf diags =
  Format.fprintf ppf "[%a]@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@\n ")
       json_diag)
    diags

let exit_code ~fail_on diags =
  if List.exists (fun d -> compare_severity d.rule.severity fail_on >= 0) diags
  then 1
  else 0
