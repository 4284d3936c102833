type t = {
  detector : string;
  time : float;
  session : Update.session_id;
  prefix : Prefix.t;
  kind : string;
  summary : string;
  evidence : Update.t list;
}

type detector = {
  name : string;
  observe : Update.t -> t list;
}

type registry = { mutable detectors : detector list }

let registry () = { detectors = [] }

let register r d =
  if List.exists (fun d' -> String.equal d'.name d.name) r.detectors then
    invalid_arg (Printf.sprintf "Alert.register: duplicate detector %S" d.name);
  r.detectors <- r.detectors @ [ d ]

let observe r u = List.concat_map (fun d -> d.observe u) r.detectors

let alarm_kind (a : Detection.alarm) =
  match a.Detection.kind with
  | Detection.Moas _ -> "moas"
  | Detection.Sub_prefix _ -> "subprefix"
  | Detection.Origin_adjacency _ -> "origin-adjacency"

let of_alarm ~detector ?(evidence = []) (a : Detection.alarm) =
  { detector;
    time = a.Detection.time;
    session = a.Detection.session;
    prefix = Detection.alarm_prefix a;
    kind = alarm_kind a;
    summary = Format.asprintf "%a" Detection.pp_alarm a;
    evidence }

let c1c ?learning_period ?(evidence = fun _ -> []) () =
  let monitor = Detection.create ?learning_period () in
  { name = "c1c";
    observe =
      (fun u ->
         Detection.observe monitor u
         |> List.map (fun a ->
             of_alarm ~detector:"c1c"
               ~evidence:(evidence (Detection.alarm_prefix a)) a)) }

(* Alerts from the same detector over the same alarm stream render
   identically, so alert-set comparisons (streaming vs batch) compare
   these tuples. *)
let comparable a = (a.time, a.detector, a.kind, a.summary)

let equal a b =
  let ta, da, ka, sa = comparable a and tb, db, kb, sb = comparable b in
  Float.equal ta tb && String.equal da db && String.equal ka kb
  && String.equal sa sb

let pp ppf a =
  Format.fprintf ppf "[%s/%s] %s (session %a, %d evidence updates)"
    a.detector a.kind a.summary Update.pp_session a.session
    (List.length a.evidence)
