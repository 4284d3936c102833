type t = {
  name : string;
  path : string;
  depth : int;
  domain : int;
  start : float;
  dur : float;
  alloc_bytes : float;
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Per-domain recording state: the live nesting stack plus the finished
   spans, newest first.  States register themselves on [all] (under
   [mu]) the first time a domain records, so [drain] can reach every
   domain's buffer. *)
type dstate = {
  dom : int;
  mutable stack : string list;
  mutable out : t list;
}

let mu = Mutex.create ()
let all : dstate list ref = ref []

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let d =
        { dom = (Domain.self () :> int); stack = []; out = [] }
      in
      Mutex.lock mu;
      all := d :: !all;
      Mutex.unlock mu;
      d)

let with_ ~name f =
  if not (Atomic.get on) then f ()
  else begin
    let d = Domain.DLS.get dls in
    let path =
      match d.stack with [] -> name | top :: _ -> top ^ "/" ^ name
    in
    d.stack <- path :: d.stack;
    let depth = List.length d.stack in
    let start = Clock.now () in
    let a0 = Gc.allocated_bytes () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Clock.now () -. start in
        let alloc_bytes = Gc.allocated_bytes () -. a0 in
        d.stack <- List.tl d.stack;
        d.out <-
          { name; path; depth; domain = d.dom; start; dur; alloc_bytes }
          :: d.out;
        Metrics.incr Manifest.obs_spans)
      f
  end

let drain () =
  Mutex.lock mu;
  let states = List.rev !all in
  Mutex.unlock mu;
  List.concat_map
    (fun d ->
      let spans = List.rev d.out in
      d.out <- [];
      spans)
    states

let reset () =
  Mutex.lock mu;
  List.iter (fun d -> d.out <- []) !all;
  Mutex.unlock mu
