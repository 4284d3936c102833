(* Trace-shaped session churn: per-entity heavy-tailed up/down
   alternating-renewal processes, after the overnet availability traces of
   Bhagwan et al. (NSDI'03). Each entity alternates Up sessions and Down
   outages whose durations are drawn from configurable heavy-tailed laws;
   the merged, time-sorted event stream is what [Qs_bgp.Dynamics] consumes
   when a scenario selects a trace-shaped churn model.

   Determinism: generation is serial and per-entity. Entity [i] draws from
   sibling stream [i] of [Rng.split_n], so its session sequence depends
   only on the seed and on [i] — never on the worker count or on any other
   entity. The merged stream is therefore byte-identical across reruns and
   across [--jobs] settings by construction; [check --suite churn]
   enforces this plus the distribution-shape laws. *)

type law =
  | Pareto of { alpha : float; xmin : float }
  | Log_normal of { mu : float; sigma : float }

let check_law = function
  | Pareto { alpha; xmin } ->
      if alpha <= 0. || xmin <= 0. then
        invalid_arg "Churn: Pareto needs alpha > 0 and xmin > 0"
  | Log_normal { sigma; _ } ->
      if sigma <= 0. then invalid_arg "Churn: Log_normal needs sigma > 0"

let law_to_string = function
  | Pareto { alpha; xmin } -> Printf.sprintf "pareto(alpha=%g,xmin=%g)" alpha xmin
  | Log_normal { mu; sigma } -> Printf.sprintf "lognormal(mu=%g,sigma=%g)" mu sigma

let mean = function
  | Pareto { alpha; xmin } ->
      if alpha > 1. then alpha *. xmin /. (alpha -. 1.) else infinity
  | Log_normal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.))

let median = function
  | Pareto { alpha; xmin } -> xmin *. Float.pow 2. (1. /. alpha)
  | Log_normal { mu; _ } -> exp mu

(* Abramowitz–Stegun 7.1.26; |error| < 1.5e-7, plenty under the KS
   tolerance the check suite asserts. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    ((((1.061405429 *. t -. 1.453152027) *. t) +. 1.421413741) *. t
     -. 0.284496736)
    *. t
    +. 0.254829592
  in
  sign *. (1. -. (poly *. t *. exp (-.x *. x)))

let cdf law x =
  match law with
  | Pareto { alpha; xmin } ->
      if x < xmin then 0. else 1. -. Float.pow (xmin /. x) alpha
  | Log_normal { mu; sigma } ->
      if x <= 0. then 0.
      else 0.5 *. (1. +. erf ((log x -. mu) /. (sigma *. Float.sqrt 2.)))

let sample rng = function
  | Pareto { alpha; xmin } -> Rng.pareto rng ~alpha ~xmin
  | Log_normal { mu; sigma } -> exp (Rng.normal rng ~mu ~sigma)

type config = {
  up_law : law;
  down_law : law;
}

let check_config c =
  check_law c.up_law;
  check_law c.down_law

(* Pareto alpha = 1.5 for up sessions gives the infinite-variance tail the
   overnet traces show (median ~30 min, a fat tail of day-long sessions);
   outages are shorter and lighter-tailed. *)
let pareto_day =
  { up_law = Pareto { alpha = 1.5; xmin = 1800. };
    down_law = Pareto { alpha = 2.5; xmin = 120. } }

let lognormal_day =
  { up_law = Log_normal { mu = log 7200.; sigma = 1.2 };
    down_law = Log_normal { mu = log 300.; sigma = 0.8 } }

type action = Up | Down

let action_to_string = function Up -> "U" | Down -> "D"

type event = {
  time : float;
  entity : int;
  action : action;
}

let compare_event a b =
  match Float.compare a.time b.time with
  | 0 -> (
      match Int.compare a.entity b.entity with
      | 0 -> (
          (* a zero-length outage cannot be sampled (xmin > 0, lognormal
             support is (0, inf)), but keep the order total anyway *)
          match (a.action, b.action) with
          | Down, Up -> -1
          | Up, Down -> 1
          | Up, Up | Down, Down -> 0)
      | c -> c)
  | c -> c

let generate ~rng config ~entities ~duration =
  check_config config;
  if entities < 0 then invalid_arg "Churn.generate: entities < 0";
  if duration <= 0. then invalid_arg "Churn.generate: duration <= 0";
  let streams = Rng.split_n rng entities in
  let events = ref [] in
  for e = 0 to entities - 1 do
    let rng = streams.(e) in
    (* Every entity starts Up at t = 0; its first Down comes after a full
       up-session. Every emitted Down gets its closing Up emitted even
       past the horizon, so a consumer that applies stragglers returns to
       the all-up baseline — the accounting identity the check suite
       asserts. *)
    let t = ref (sample rng config.up_law) in
    while !t < duration do
      let d = sample rng config.down_law in
      events := { time = !t; entity = e; action = Down } :: !events;
      events := { time = !t +. d; entity = e; action = Up } :: !events;
      t := !t +. d +. sample rng config.up_law
    done
  done;
  let sorted = List.stable_sort compare_event (List.rev !events) in
  Metrics.add Manifest.churn_trace_events (List.length sorted);
  Metrics.add Manifest.churn_trace_entities entities;
  sorted

let to_string events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
       Buffer.add_string buf
         (Printf.sprintf "%.6f %d %s\n" ev.time ev.entity
            (action_to_string ev.action)))
    events;
  Buffer.contents buf

(* Per-entity session durations recovered from a stream: each Down at t
   paired with the entity's next Up at t' yields outage t' - t; each Up at
   t' paired with the next Down yields session length. Used by the check
   suite to tie the emitted stream back to the configured laws. *)
let durations events =
  let last : (int, float * action) Hashtbl.t = Hashtbl.create 64 in
  let ups = ref [] and downs = ref [] in
  List.iter
    (fun ev ->
       (match Hashtbl.find_opt last ev.entity with
        | Some (t0, Down) when ev.action = Up -> downs := (ev.time -. t0) :: !downs
        | Some (t0, Up) when ev.action = Down -> ups := (ev.time -. t0) :: !ups
        | _ -> ());
       Hashtbl.replace last ev.entity (ev.time, ev.action))
    events;
  (List.rev !ups, List.rev !downs)
