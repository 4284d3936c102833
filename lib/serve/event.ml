type t =
  | Path_change of {
      key : Measurement.key;
      time : float;
      total : int;
      in_window : int;
    }
  | Extra_as of {
      key : Measurement.key;
      time : float;
      asn : Asn.t;
      run : float;
    }
  | Evicted of {
      key : Measurement.key;
      time : float;
      cell : Measurement.cell option;
    }
  | Alert of Alert.t
  | Violation of { invariant : string; message : string }

let time = function
  | Path_change { time; _ } | Extra_as { time; _ } | Evicted { time; _ } ->
      Some time
  | Alert a -> Some a.Alert.time
  | Violation _ -> None

let esc = Export.json_escape

let num f = Printf.sprintf "%.6f" f

let key_fields (k : Measurement.key) =
  Printf.sprintf "\"collector\":\"%s\",\"peer\":%d,\"prefix\":\"%s\""
    (esc k.Measurement.session.Update.collector)
    (Asn.to_int k.Measurement.session.Update.peer)
    (esc (Prefix.to_string k.Measurement.prefix))

let to_json = function
  | Path_change { key; time; total; in_window } ->
      Printf.sprintf
        "{\"event\":\"path_change\",\"time\":%s,%s,\"total\":%d,\"in_window\":%d}"
        (num time) (key_fields key) total in_window
  | Extra_as { key; time; asn; run } ->
      Printf.sprintf
        "{\"event\":\"extra_as\",\"time\":%s,%s,\"asn\":%d,\"run\":%s}"
        (num time) (key_fields key) (Asn.to_int asn) (num run)
  | Evicted { key; time; cell } ->
      let counts =
        match cell with
        | None -> "\"measured\":false"
        | Some c ->
            Printf.sprintf
              "\"measured\":true,\"updates\":%d,\"path_changes\":%d"
              c.Measurement.updates c.Measurement.path_changes
      in
      Printf.sprintf "{\"event\":\"evicted\",\"time\":%s,%s,%s}" (num time)
        (key_fields key) counts
  | Alert a ->
      Printf.sprintf
        "{\"event\":\"alert\",\"time\":%s,\"detector\":\"%s\",\"kind\":\"%s\",\
         \"collector\":\"%s\",\"peer\":%d,\"prefix\":\"%s\",\"summary\":\"%s\",\
         \"evidence\":%d}"
        (num a.Alert.time) (esc a.Alert.detector) (esc a.Alert.kind)
        (esc a.Alert.session.Update.collector)
        (Asn.to_int a.Alert.session.Update.peer)
        (esc (Prefix.to_string a.Alert.prefix))
        (esc a.Alert.summary)
        (List.length a.Alert.evidence)
  | Violation { invariant; message } ->
      Printf.sprintf
        "{\"event\":\"violation\",\"invariant\":\"%s\",\"message\":\"%s\"}"
        (esc invariant) (esc message)
