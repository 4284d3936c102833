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

(* Registry handles (see lib/obs): counts are exact and scheduling-
   independent — one [exec.sweeps] increment and one observation per
   histogram per sweep — while the histogram timing fields carry the
   wall-clock content of [stats]. *)
let m_sweeps = Metrics.counter ~help:"parallel sweeps submitted" "exec.sweeps"
let m_chunks = Metrics.counter ~help:"chunks across all sweeps" "exec.chunks"
let m_jobs = Metrics.gauge ~help:"width of the last pool created" "exec.jobs"

let m_sweep_s =
  Metrics.histogram ~help:"caller wall seconds per sweep" "exec.sweep_seconds"

let m_busy_s =
  Metrics.histogram ~help:"summed domain-busy seconds per sweep"
    "exec.busy_seconds"

let m_wait_s =
  Metrics.histogram ~help:"summed worker-wait seconds per sweep"
    "exec.wait_seconds"

type domain_stats = { chunks : int; busy : float; wait : float }

type stats = {
  jobs : int;
  calls : int;
  chunks : int;
  wall : float;
  domains : domain_stats array;
}

type job = {
  run_chunk : int -> unit;
  n_chunks : int;
  next : int Atomic.t;
  completed : int Atomic.t;
}

type slot = {
  mutable s_chunks : int;
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
  mutable calls : int;             (* protected by [submit] *)
  mutable chunks_total : int;
  mutable wall : float;
  mutable last : stats option;     (* protected by [submit] *)
}

let jobs t = t.n_jobs

let self_id () = (Domain.self () :> int)

(* Pull chunks off [job] until the counter runs dry. Runs on workers and on
   the caller alike; [w] is this domain's stats slot. Task exceptions are
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
      t.slots.(w).s_chunks <- t.slots.(w).s_chunks + 1;
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
      slots = Array.init jobs (fun _ -> { s_chunks = 0; s_busy = 0.; s_wait = 0. });
      submit = Mutex.create ();
      active_caller = Atomic.make (-1);
      err = Atomic.make None;
      calls = 0;
      chunks_total = 0;
      wall = 0.;
      last = None }
  in
  Metrics.set m_jobs (float_of_int jobs);
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

let run_job t ~n_chunks run_chunk =
  if t.shut then invalid_arg "Pool: pool is shut down";
  let self = self_id () in
  if Atomic.get t.active_caller = self
     || Array.exists (fun id -> id = self) t.worker_ids
  then invalid_arg "Pool: tasks must not submit work to their own pool";
  Mutex.lock t.submit;
  Atomic.set t.active_caller self;
  (* Per-call reset marker: remember where every slot stood so the
     deltas of *this* sweep can be separated from the pool's cumulative
     totals.  Chunk counts are published before the completion count, so
     chunk deltas are exact; a worker adds its busy tail *after* its
     last chunk completes the sweep, so a slow tail may slip into the
     next sweep's delta — busy/wait deltas are non-negative and sum to
     the totals over a pool's lifetime, but an individual sweep's is a
     lower bound (exact at [jobs = 1]).  See [last_sweep]. *)
  let marks =
    Array.map (fun s -> (s.s_chunks, s.s_busy, s.s_wait)) t.slots
  in
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
  t.calls <- t.calls + 1;
  t.chunks_total <- t.chunks_total + n_chunks;
  let dt = now () -. started in
  t.wall <- t.wall +. dt;
  let deltas =
    Array.mapi
      (fun i (c0, b0, w0) ->
        let s = t.slots.(i) in
        { chunks = s.s_chunks - c0;
          busy = Float.max 0. (s.s_busy -. b0);
          wait = Float.max 0. (s.s_wait -. w0) })
      marks
  in
  t.last <-
    Some { jobs = t.n_jobs; calls = 1; chunks = n_chunks; wall = dt;
           domains = deltas };
  Metrics.incr m_sweeps;
  Metrics.add m_chunks n_chunks;
  Metrics.observe m_sweep_s dt;
  Metrics.observe m_busy_s
    (Array.fold_left (fun acc d -> acc +. d.busy) 0. deltas);
  Metrics.observe m_wait_s
    (Array.fold_left (fun acc d -> acc +. d.wait) 0. deltas);
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

(* ---- stats ------------------------------------------------------------ *)

let stats t =
  Mutex.lock t.submit;
  let s =
    { jobs = t.n_jobs;
      calls = t.calls;
      chunks = t.chunks_total;
      wall = t.wall;
      domains =
        Array.map
          (fun s -> { chunks = s.s_chunks; busy = s.s_busy; wait = s.s_wait })
          t.slots }
  in
  Mutex.unlock t.submit;
  s

let last_sweep t =
  Mutex.lock t.submit;
  let s = t.last in
  Mutex.unlock t.submit;
  s

let reset_stats t =
  Mutex.lock t.submit;
  t.calls <- 0;
  t.chunks_total <- 0;
  t.wall <- 0.;
  t.last <- None;
  Array.iter
    (fun s ->
       s.s_chunks <- 0;
       s.s_busy <- 0.;
       s.s_wait <- 0.)
    t.slots;
  Mutex.unlock t.submit

let pp_stats ppf s =
  Format.fprintf ppf "exec pool: jobs=%d calls=%d chunks=%d parallel-wall=%.3fs"
    s.jobs s.calls s.chunks s.wall;
  Array.iteri
    (fun i (d : domain_stats) ->
       if i = 0 then
         Format.fprintf ppf "@.  d0 (caller): %d chunks, %.3fs busy" d.chunks d.busy
       else
         Format.fprintf ppf "@.  d%d: %d chunks, %.3fs busy, %.3fs waiting" i
           d.chunks d.busy d.wait)
    s.domains
