type t = {
  name : string;
  emit : (Event.t * string) array -> unit;
  close : unit -> unit;
}

let make ~name ?(close = fun () -> ()) emit = { name; emit; close }

let name t = t.name
let emit t batch = if Array.length batch > 0 then t.emit batch
let close t = t.close ()

let null = make ~name:"null" (fun _ -> ())

let memory () =
  let events = ref [] in
  let sink =
    make ~name:"memory" (fun batch ->
        Array.iter (fun (e, _) -> events := e :: !events) batch)
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
