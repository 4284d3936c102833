let default = Unix.gettimeofday

let source = Atomic.make default

let now () = (Atomic.get source) ()

let with_source f g =
  let old = Atomic.exchange source f in
  Fun.protect ~finally:(fun () -> Atomic.set source old) g
