type consumer =
  | Lines of ((Event.t * string) array -> unit)
  | Events of (Event.t array -> unit)
  | Nothing

type t = { name : string; consumer : consumer; close : unit -> unit }

let make ~name ?(close = fun () -> ()) emit =
  { name; consumer = Lines emit; close }

let name t = t.name

let reads t =
  match t.consumer with Nothing -> false | Lines _ | Events _ -> true

let emit t events lines =
  if Array.length events > 0 then
    match t.consumer with
    | Lines f -> f (Lazy.force lines)
    | Events f -> f events
    | Nothing -> ()

let close t = t.close ()

let null = { name = "null"; consumer = Nothing; close = (fun () -> ()) }

let memory () =
  let events = ref [] in
  let sink =
    { name = "memory";
      consumer =
        Events
          (fun batch -> Array.iter (fun e -> events := e :: !events) batch);
      close = (fun () -> ()) }
  in
  (sink, fun () -> List.rev !events)

let jsonl ?(name = "jsonl") oc =
  make ~name
    ~close:(fun () -> flush oc)
    (fun batch ->
       Array.iter
         (fun (_, line) ->
            output_string oc line;
            output_char oc '\n')
         batch;
       flush oc)
