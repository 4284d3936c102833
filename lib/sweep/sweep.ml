type churn = Calm | Baseline | Heavy | Trace_pareto | Trace_lognormal

type consensus = Frozen | Frozen_m2 | Live_hourly | Live_heavy

type guards = No_guards | Guards of { n : int; rotation_days : int }

type vars = {
  size : Scenario.size;
  seed : int;
  days : float;
  churn : churn;
  consensus : consensus;
  delta : bool;
  obs : bool;
  adversary : float;
  guards : guards;
  threshold : float;
}

let default_vars =
  { size = Scenario.Small;
    seed = 1;
    days = 1.;
    churn = Baseline;
    consensus = Frozen;
    delta = true;
    obs = true;
    adversary = 0.;
    guards = Guards { n = 3; rotation_days = 30 };
    threshold = 300. }

let known_keys =
  [ ("size", "scenario scale: small | paper");
    ("seed", "scenario seed (non-negative integer)");
    ("days", "simulated measurement horizon in days, in (0, 366]");
    ("churn", "churn model: calm | baseline | heavy | trace-pareto | \
               trace-lognormal");
    ("consensus", "M2 consensus model: frozen (no M2 stage) | frozen-m2 \
                   (M2 on the frozen snapshot) | live-hourly | live-heavy \
                   (M2 on hourly living epochs)");
    ("delta", "incremental delta repair: on | off (full recompute)");
    ("obs", "qs_obs instrumentation during the cell: on | off");
    ("adversary", "fraction of malicious ASes, in [0, 1]; 0 = no adversary");
    ("guards", "guard policy: none | N/D (N guards, rotate every D days) | \
                N/never");
    ("threshold", "F3R contiguous-residency threshold in seconds, >= 0") ]

let churn_to_string = function
  | Calm -> "calm"
  | Baseline -> "baseline"
  | Heavy -> "heavy"
  | Trace_pareto -> "trace-pareto"
  | Trace_lognormal -> "trace-lognormal"

let consensus_to_string = function
  | Frozen -> "frozen"
  | Frozen_m2 -> "frozen-m2"
  | Live_hourly -> "live-hourly"
  | Live_heavy -> "live-heavy"

let guards_to_string = function
  | No_guards -> "none"
  | Guards { n; rotation_days } ->
      if rotation_days = max_int then Printf.sprintf "%d/never" n
      else Printf.sprintf "%d/%d" n rotation_days

(* [%g] prints 1. as "1" and keeps 0.25 exact: the spelling of every float
   in a binding label, a slug and a fingerprint. *)
let float_str f = Printf.sprintf "%g" f

(* Sorted by key: adversary, churn, consensus, days, delta, guards, obs,
   threshold. Seed and size are carried by the fingerprint's own
   identity section, so repeating them here would double-count nothing and
   desync eventually. *)
let on_off b = if b then "on" else "off"

let canonical_bindings v =
  [ ("adversary", float_str v.adversary);
    ("churn", churn_to_string v.churn);
    ("consensus", consensus_to_string v.consensus);
    ("days", float_str v.days);
    ("delta", on_off v.delta);
    ("guards", guards_to_string v.guards);
    ("obs", on_off v.obs);
    ("threshold", float_str v.threshold) ]

let identity v =
  Printf.sprintf "size=%s,seed=%d,%s"
    (Scenario.size_to_string v.size)
    v.seed
    (String.concat ","
       (List.map (fun (k, x) -> k ^ "=" ^ x) (canonical_bindings v)))

let dynamics v =
  let base =
    match v.size with
    | Scenario.Paper -> Dynamics.default_config
    | Scenario.Small -> Dynamics.short_config
  in
  let base = { base with Dynamics.duration = v.days *. 86_400. } in
  let base =
    match v.churn with
    | Baseline -> base
    | Calm ->
        { base with
          Dynamics.base_churn_rate = base.Dynamics.base_churn_rate *. 0.25;
          resets_per_session = base.Dynamics.resets_per_session *. 0.5 }
    | Heavy ->
        (* The churn-heavy day the [ab-delta] entry stresses:
           pathological flap rates with very short outages, so the
           update stream is dominated by re-announcements. *)
        { base with
          Dynamics.base_churn_rate = 2.0;
          mean_outage = 5.;
          mean_global_outage = 5. }
    | Trace_pareto ->
        (* Trace-shaped session churn layered over the baseline Poisson
           processes: heavy-tailed per-origin up/down sessions on the
           dedicated trace stream (lib/churn). *)
        { base with Dynamics.session_churn = Some Churn.pareto_day }
    | Trace_lognormal ->
        { base with Dynamics.session_churn = Some Churn.lognormal_day }
  in
  { base with Dynamics.delta = v.delta }

type axis = { key : string; points : (string * (vars -> vars)) list }

let axis key label set values =
  { key; points = List.map (fun x -> (label x, fun v -> set v x)) values }

let size = axis "size" Scenario.size_to_string (fun v size -> { v with size })
let seed = axis "seed" string_of_int (fun v seed -> { v with seed })
let days = axis "days" float_str (fun v days -> { v with days })
let churn = axis "churn" churn_to_string (fun v churn -> { v with churn })

let consensus =
  axis "consensus" consensus_to_string (fun v consensus -> { v with consensus })

let delta = axis "delta" on_off (fun v delta -> { v with delta })
let obs = axis "obs" on_off (fun v obs -> { v with obs })
let adversary =
  axis "adversary" float_str (fun v adversary -> { v with adversary })
let guards = axis "guards" guards_to_string (fun v guards -> { v with guards })

let threshold =
  axis "threshold" float_str (fun v threshold -> { v with threshold })

type entry = {
  name : string;
  doc : string;
  vars : vars;
  axes : axis list;
}

let base_small_day =
  { name = "base-small-day";
    doc = "one simulated day over the Small scenario, stock everything";
    vars = { default_vars with size = Scenario.Small; days = 1. };
    axes = [] }

let churn_day =
  { name = "churn-day";
    doc = "base-small-day under the churn-heavy dynamics model";
    vars = { base_small_day.vars with churn = Heavy };
    axes = [] }

let builtin =
  [ base_small_day;
    churn_day;
    { name = "ab-delta";
      doc = "AB-delta ablation: delta repair off vs on over a churn-heavy \
             day (bench times it as the F3L-dynamics-full kernel)";
      vars = churn_day.vars;
      axes = [ delta [ false; true ] ] };
    { name = "ab-obs";
      doc = "AB-obs ablation: instrumentation off vs on — results must be \
             identical, only the cost may differ (bench times it as the \
             F3L-dynamics-delta-obs-off kernel)";
      vars = churn_day.vars;
      axes = [ obs [ false; true ] ] };
    { name = "exposure-matrix";
      doc = "the paper's exposure sweep: churn model x adversary fraction \
             x guard policy over one Small day";
      vars = base_small_day.vars;
      axes =
        [ churn [ Calm; Baseline; Heavy ];
          adversary [ 0.02; 0.05 ];
          guards
            [ No_guards;
              Guards { n = 3; rotation_days = 30 };
              Guards { n = 1; rotation_days = max_int } ] ] };
    { name = "churn-trace-day";
      doc = "base-small-day under trace-shaped session churn \
             (lib/churn heavy-tailed up/down sessions)";
      vars = { base_small_day.vars with churn = Trace_pareto };
      axes = [] };
    { name = "m2-consensus";
      doc = "M2 frozen vs living consensus: guard exposure drift when \
             relays arrive, depart and drift in bandwidth each hour";
      vars = { base_small_day.vars with adversary = 0.05 };
      axes = [ consensus [ Frozen_m2; Live_hourly ] ] };
    { name = "seeds-2x2";
      doc = "tiny CI matrix: two seeds x two churn models over a quarter \
             of a Small day";
      vars = { default_vars with size = Scenario.Small; days = 0.25 };
      axes = [ seed [ 1; 2 ]; churn [ Calm; Heavy ] ] } ]

let find registry name =
  List.find_opt (fun e -> e.name = name) registry

type cell = {
  index : int;
  bindings : (string * string) list;
  vars : vars;
}

(* Expand axes row-major: the first axis varies slowest, the last fastest,
   matching how the table reads. Each cell applies its axis values in
   axis order over the entry's vars. *)
let cells entry =
  let combos =
    List.fold_right
      (fun a acc ->
         List.concat_map
           (fun (label, set) ->
              List.map
                (fun (bs, f) -> ((a.key, label) :: bs, fun v -> f (set v)))
                acc)
           a.points)
      entry.axes
      [ ([], Fun.id) ]
  in
  List.mapi
    (fun index (bindings, apply) ->
       { index; bindings; vars = apply entry.vars })
    combos

type invalid = {
  entry : string;
  problem : string;
  detail : (string * string) list;
  message : string;
}

let invalid entry problem detail message = { entry; problem; detail; message }

let validate entry =
  let empty_axes =
    List.filter_map
      (fun a ->
         if a.points = [] then
           Some
             (invalid entry.name "empty-axis"
                [ ("axis", a.key) ]
                (Printf.sprintf
                   "%s: axis %S has no values — the matrix would be empty"
                   entry.name a.key))
         else None)
      entry.axes
  in
  let seen = Hashtbl.create 16 in
  let dups =
    List.filter_map
      (fun c ->
         let id = identity c.vars in
         match Hashtbl.find_opt seen id with
         | Some first ->
             Some
               (invalid entry.name "duplicate-cell"
                  [ ("identity", id);
                    ("first", string_of_int first);
                    ("duplicate", string_of_int c.index) ]
                  (Printf.sprintf
                     "%s: cells %d and %d share identity %s — two axis \
                      combinations bind the same variables, so the matrix \
                      would run one cell twice"
                     entry.name first c.index id))
         | None ->
             Hashtbl.add seen id c.index;
             None)
      (cells entry)
  in
  empty_axes @ dups

let validate_registry registry =
  let _, dups =
    List.fold_left
      (fun (seen, invalids) e ->
         if List.mem e.name seen then
           ( seen,
             invalid e.name "duplicate-entry" []
               (Printf.sprintf
                  "registry declares entry %S more than once — lookups by \
                   name would silently pick one" e.name)
             :: invalids )
         else (e.name :: seen, invalids))
      ([], []) registry
  in
  List.rev dups @ List.concat_map validate registry

let sanitize s =
  String.map
    (fun ch ->
       match ch with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ch
       | _ -> '-')
    s

let slug c =
  match c.bindings with
  | [] -> Printf.sprintf "cell-%03d" c.index
  | bs ->
      Printf.sprintf "cell-%03d-%s" c.index
        (String.concat ","
           (List.map (fun (k, v) -> sanitize k ^ "=" ^ sanitize v) bs))
