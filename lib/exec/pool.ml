(* A fixed-size domain pool with deterministic reduction.

   Scheduling: one job at a time. The caller publishes a job (a chunked
   sweep) under [m], broadcasts [work_cv], then participates itself;
   workers and caller race on an atomic chunk counter, so load-balancing
   is dynamic while the *placement of results* stays fixed (each chunk
   writes its own slots). Completion is an atomic count-up; the finisher
   signals [done_cv]. Workers block between jobs — an idle pool burns no
   cycles.

   Determinism comes from the callers of this module never letting
   scheduling leak into data: results land in per-item slots and are
   reduced in submission order, and seeded work derives per-item RNG
   streams before anything runs (see [map_seeded]). *)

let now = Clock.now

type job = {
  run_chunk : int -> unit;
  n_chunks : int;
  next : int Atomic.t;
  completed : int Atomic.t;
}

type slot = {
  mutable s_busy : float;
  mutable s_wait : float;
}

type t = {
  n_jobs : int;
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable job : job option;        (* protected by [m] *)
  mutable generation : int;        (* protected by [m]; bumped per job *)
  mutable stop : bool;             (* protected by [m] *)
  mutable shut : bool;
  mutable workers : unit Domain.t array;
  worker_ids : int array;          (* domain ids, written by each worker *)
  slots : slot array;              (* slot i touched only by domain i *)
  submit : Mutex.t;                (* serializes whole sweeps *)
  active_caller : int Atomic.t;    (* domain id inside a sweep, or -1 *)
  err : exn option Atomic.t;
}

let jobs t = t.n_jobs

let self_id () = (Domain.self () :> int)

(* Pull chunks off [job] until the counter runs dry. Runs on workers and on
   the caller alike; [w] is this domain's timing slot. Task exceptions are
   captured (first wins) and re-raised by the submitting caller once the
   sweep drains, so a failing chunk can never wedge the completion count. *)
let participate t w (job : job) =
  let started = now () in
  let n = job.n_chunks in
  let rec grab () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < n then begin
      (try job.run_chunk c
       with e -> ignore (Atomic.compare_and_set t.err None (Some e)));
      let completed = 1 + Atomic.fetch_and_add job.completed 1 in
      if completed = n then begin
        Mutex.lock t.m;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.m
      end;
      grab ()
    end
  in
  grab ();
  t.slots.(w).s_busy <- t.slots.(w).s_busy +. (now () -. started)

let worker_loop t w =
  t.worker_ids.(w - 1) <- self_id ();
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    let wait0 = now () in
    while (not t.stop) && (t.job = None || t.generation = !seen) do
      Condition.wait t.work_cv t.m
    done;
    t.slots.(w).s_wait <- t.slots.(w).s_wait +. (now () -. wait0);
    if t.stop then begin
      Mutex.unlock t.m;
      running := false
    end else begin
      let job = Option.get t.job in
      seen := t.generation;
      Mutex.unlock t.m;
      participate t w job
    end
  done

let max_jobs = 512

let create ~jobs () =
  if jobs < 1 || jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs must be in [1, %d]" max_jobs);
  let t =
    { n_jobs = jobs;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
      shut = false;
      workers = [||];
      worker_ids = Array.make (max 0 (jobs - 1)) (-1);
      slots = Array.init jobs (fun _ -> { s_busy = 0.; s_wait = 0. });
      submit = Mutex.create ();
      active_caller = Atomic.make (-1);
      err = Atomic.make None }
  in
  Metrics.set Manifest.exec_jobs (float_of_int jobs);
  t.workers <- Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    if t.n_jobs > 1 then begin
      Mutex.lock t.m;
      t.stop <- true;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m;
      Array.iter Domain.join t.workers
    end
  end

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_pool = ref None
let default_m = Mutex.create ()

let default () =
  Mutex.lock default_m;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ~jobs:(Domain.recommended_domain_count ()) () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_m;
  p

(* ---- sweep submission ------------------------------------------------ *)

let busy_total t = Array.fold_left (fun acc s -> acc +. s.s_busy) 0. t.slots
let wait_total t = Array.fold_left (fun acc s -> acc +. s.s_wait) 0. t.slots

let run_job t ~n_chunks run_chunk =
  if t.shut then invalid_arg "Pool: pool is shut down";
  let self = self_id () in
  if Atomic.get t.active_caller = self
     || Array.exists (fun id -> id = self) t.worker_ids
  then invalid_arg "Pool: tasks must not submit work to their own pool";
  Mutex.lock t.submit;
  Atomic.set t.active_caller self;
  (* A worker adds its busy tail *after* its last chunk completes the
     sweep, so a slow tail may slip into the next sweep's difference:
     each sweep's busy and wait seconds are non-negative lower bounds
     that sum to the pool's totals over its lifetime (exact at
     [jobs = 1]). *)
  let busy0 = busy_total t and wait0 = wait_total t in
  let started = now () in
  Atomic.set t.err None;
  let job =
    { run_chunk; n_chunks; next = Atomic.make 0; completed = Atomic.make 0 }
  in
  if t.n_jobs = 1 then participate t 0 job
  else begin
    Mutex.lock t.m;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    participate t 0 job;
    Mutex.lock t.m;
    while Atomic.get job.completed < n_chunks do
      Condition.wait t.done_cv t.m
    done;
    t.job <- None;
    Mutex.unlock t.m
  end;
  Metrics.incr Manifest.exec_sweeps;
  Metrics.add Manifest.exec_chunks n_chunks;
  Metrics.observe Manifest.exec_sweep_seconds (now () -. started);
  Metrics.observe Manifest.exec_busy_seconds
    (Float.max 0. (busy_total t -. busy0));
  Metrics.observe Manifest.exec_wait_seconds
    (Float.max 0. (wait_total t -. wait0));
  let failure = Atomic.get t.err in
  Atomic.set t.active_caller (-1);
  Mutex.unlock t.submit;
  match failure with Some e -> raise e | None -> ()

let default_chunk t n = max 1 (n / (t.n_jobs * 8))

exception Missing_result
(* unreachable: run_job re-raises any task failure before extraction *)

let mapi_into ?chunk t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c ->
          if c <= 0 then invalid_arg "Pool.map: chunk must be positive";
          c
      | None -> default_chunk t n
    in
    let results = Array.make n None in
    let n_chunks = (n + chunk - 1) / chunk in
    run_job t ~n_chunks (fun c ->
        let lo = c * chunk in
        let hi = min n (lo + chunk) - 1 in
        for i = lo to hi do
          results.(i) <- Some (f i arr.(i))
        done);
    Array.map (function Some v -> v | None -> raise Missing_result) results
  end

let map ?chunk t f arr = mapi_into ?chunk t (fun _ x -> f x) arr

let map_list ?chunk t f l = Array.to_list (map ?chunk t f (Array.of_list l))

let map_seeded ?chunk t ~rng f arr =
  let streams = Rng.split_n rng (Array.length arr) in
  mapi_into ?chunk t (fun i x -> f streams.(i) x) arr

let fold ?chunk t ~f ~reduce ~init arr =
  Array.fold_left reduce init (map ?chunk t f arr)

(* ---- per-domain resources -------------------------------------------- *)

type 'r per_domain = {
  make : unit -> 'r;
  table : (int, 'r) Hashtbl.t;
  table_m : Mutex.t;
}

let per_domain make = { make; table = Hashtbl.create 8; table_m = Mutex.create () }

let get r =
  let id = self_id () in
  Mutex.lock r.table_m;
  match Hashtbl.find_opt r.table id with
  | Some v ->
      Mutex.unlock r.table_m;
      v
  | None ->
      (* Create outside the lock: [make] may be slow, and only this domain
         can ask for this key, so the later insert cannot race with
         another creation of the same instance. *)
      Mutex.unlock r.table_m;
      let v = r.make () in
      Mutex.lock r.table_m;
      Hashtbl.replace r.table id v;
      Mutex.unlock r.table_m;
      v
