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

let churn_of_string = function
  | "calm" -> Some Calm
  | "baseline" -> Some Baseline
  | "heavy" -> Some Heavy
  | "trace-pareto" -> Some Trace_pareto
  | "trace-lognormal" -> Some Trace_lognormal
  | _ -> None

let consensus_to_string = function
  | Frozen -> "frozen"
  | Frozen_m2 -> "frozen-m2"
  | Live_hourly -> "live-hourly"
  | Live_heavy -> "live-heavy"

let consensus_of_string = function
  | "frozen" -> Some Frozen
  | "frozen-m2" -> Some Frozen_m2
  | "live-hourly" -> Some Live_hourly
  | "live-heavy" -> Some Live_heavy
  | _ -> None

let guards_to_string = function
  | No_guards -> "none"
  | Guards { n; rotation_days } ->
      if rotation_days = max_int then Printf.sprintf "%d/never" n
      else Printf.sprintf "%d/%d" n rotation_days

let guards_of_string s =
  if s = "none" then Some No_guards
  else
    match String.index_opt s '/' with
    | None -> None
    | Some i ->
        let n = String.sub s 0 i in
        let rot = String.sub s (i + 1) (String.length s - i - 1) in
        (match (int_of_string_opt n, rot) with
         | Some n, _ when n <= 0 -> None
         | Some n, "never" -> Some (Guards { n; rotation_days = max_int })
         | Some n, _ ->
             (match int_of_string_opt rot with
              | Some d when d > 0 -> Some (Guards { n; rotation_days = d })
              | _ -> None)
         | None, _ -> None)

(* Canonical float rendering: [%g] collapses "1.0"/"1." to "1" and keeps
   "0.25" exact, so any spelling of a value in a registry entry normalizes
   to one canonical binding (and thus one fingerprint). *)
let float_str f = Printf.sprintf "%g" f

let set v ~key ~value =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let as_int k f =
    match int_of_string_opt (String.trim value) with
    | Some i -> f i
    | None -> bad "%s: not an integer: %S" k value
  in
  let as_float k f =
    match float_of_string_opt (String.trim value) with
    | Some x when Float.is_finite x -> f x
    | _ -> bad "%s: not a finite number: %S" k value
  in
  let as_switch k f =
    match value with
    | "on" -> f true
    | "off" -> f false
    | _ -> bad "%s: expected on | off, got %S" k value
  in
  match key with
  | "size" ->
      (match Scenario.size_of_string value with
       | Some s -> Ok { v with size = s }
       | None -> bad "size: expected small | paper, got %S" value)
  | "seed" ->
      as_int "seed" (fun i ->
          if i < 0 then bad "seed: must be non-negative, got %d" i
          else Ok { v with seed = i })
  | "days" ->
      as_float "days" (fun x ->
          if x <= 0. || x > 366. then
            bad "days: must be in (0, 366], got %s" (float_str x)
          else Ok { v with days = x })
  | "churn" ->
      (match churn_of_string value with
       | Some c -> Ok { v with churn = c }
       | None ->
           bad
             "churn: expected calm | baseline | heavy | trace-pareto | \
              trace-lognormal, got %S"
             value)
  | "consensus" ->
      (match consensus_of_string value with
       | Some c -> Ok { v with consensus = c }
       | None ->
           bad
             "consensus: expected frozen | frozen-m2 | live-hourly | \
              live-heavy, got %S"
             value)
  | "delta" -> as_switch "delta" (fun b -> Ok { v with delta = b })
  | "obs" -> as_switch "obs" (fun b -> Ok { v with obs = b })
  | "adversary" ->
      as_float "adversary" (fun x ->
          if x < 0. || x > 1. then
            bad "adversary: must be in [0, 1], got %s" (float_str x)
          else Ok { v with adversary = x })
  | "guards" ->
      (match guards_of_string value with
       | Some g -> Ok { v with guards = g }
       | None -> bad "guards: expected none | N/D | N/never, got %S" value)
  | "threshold" ->
      as_float "threshold" (fun x ->
          if x < 0. then bad "threshold: must be >= 0, got %s" (float_str x)
          else Ok { v with threshold = x })
  | k -> bad "unknown key %S (see `quicksand sweep --list`)" k

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

type entry = {
  name : string;
  doc : string;
  base : string option;
  overlay : (string * string) list;
  axes : (string * string list) list;
}

let builtin =
  [ { name = "base-small-day";
      doc = "one simulated day over the Small scenario, stock everything";
      base = None;
      overlay = [ ("size", "small"); ("days", "1") ];
      axes = [] };
    { name = "churn-day";
      doc = "base-small-day under the churn-heavy dynamics model";
      base = Some "base-small-day";
      overlay = [ ("churn", "heavy") ];
      axes = [] };
    { name = "ab-delta";
      doc = "AB-delta ablation: delta repair off vs on over a churn-heavy \
             day (bench times it as the F3L-dynamics-full kernel)";
      base = Some "churn-day";
      overlay = [];
      axes = [ ("delta", [ "off"; "on" ]) ] };
    { name = "ab-obs";
      doc = "AB-obs ablation: instrumentation off vs on — results must be \
             identical, only the cost may differ (bench times it as the \
             F3L-dynamics-delta-obs-off kernel)";
      base = Some "churn-day";
      overlay = [];
      axes = [ ("obs", [ "off"; "on" ]) ] };
    { name = "exposure-matrix";
      doc = "the paper's exposure sweep: churn model x adversary fraction \
             x guard policy over one Small day";
      base = Some "base-small-day";
      overlay = [];
      axes =
        [ ("churn", [ "calm"; "baseline"; "heavy" ]);
          ("adversary", [ "0.02"; "0.05" ]);
          ("guards", [ "none"; "3/30"; "1/never" ]) ] };
    { name = "churn-trace-day";
      doc = "base-small-day under trace-shaped session churn \
             (lib/churn heavy-tailed up/down sessions)";
      base = Some "base-small-day";
      overlay = [ ("churn", "trace-pareto") ];
      axes = [] };
    { name = "m2-consensus";
      doc = "M2 frozen vs living consensus: guard exposure drift when \
             relays arrive, depart and drift in bandwidth each hour";
      base = Some "base-small-day";
      overlay = [ ("adversary", "0.05") ];
      axes = [ ("consensus", [ "frozen-m2"; "live-hourly" ]) ] };
    { name = "seeds-2x2";
      doc = "tiny CI matrix: two seeds x two churn models over a quarter \
             of a Small day";
      base = None;
      overlay = [ ("size", "small"); ("days", "0.25") ];
      axes = [ ("seed", [ "1"; "2" ]); ("churn", [ "calm"; "heavy" ]) ] } ]

let find registry name =
  List.find_opt (fun e -> e.name = name) registry

type invalid = {
  entry : string;
  problem : string;
  detail : (string * string) list;
  message : string;
}

let invalid entry problem detail message = { entry; problem; detail; message }

(* Root-first list of entries whose overlays apply in order, or the chain
   problem. [seen] carries every name already on the chain so a cycle is
   caught on its first revisit. *)
let resolve_chain registry entry =
  let rec go acc seen e =
    if List.mem e.name seen then Error (`Cycle e.name)
    else
      match e.base with
      | None -> Ok (e :: acc)
      | Some b ->
          (match find registry b with
           | None -> Error (`Unreachable (e.name, b))
           | Some parent -> go (e :: acc) (e.name :: seen) parent)
  in
  go [] [] entry

(* Expand axes row-major: the first axis varies slowest, the last fastest,
   matching how the table reads. *)
let combos axes =
  List.fold_right
    (fun (key, values) acc ->
       List.concat_map
         (fun v -> List.map (fun rest -> (key, v) :: rest) acc)
         values)
    axes [ [] ]

let apply_bindings ~entry ~where v bindings =
  List.fold_left
    (fun (v, invalids) (key, value) ->
       if not (List.mem_assoc key known_keys) then
         ( v,
           invalid entry "unknown-key"
             [ ("where", where); ("key", key) ]
             (Printf.sprintf "%s: %s binds unknown key %S" entry where key)
           :: invalids )
       else
         match set v ~key ~value with
         | Ok v -> (v, invalids)
         | Error msg ->
             ( v,
               invalid entry "bad-value"
                 [ ("where", where); ("key", key); ("value", value) ]
                 (Printf.sprintf "%s: %s: %s" entry where msg)
               :: invalids ))
    (v, []) bindings

let expand registry entry =
  match resolve_chain registry entry with
  | Error (`Cycle name) ->
      Error
        [ invalid entry.name "base-cycle"
            [ ("at", name) ]
            (Printf.sprintf
               "%s: base chain loops back through %S — entries must form a \
                tree" entry.name name) ]
  | Error (`Unreachable (at, base)) ->
      Error
        [ invalid entry.name "unreachable-base"
            [ ("at", at); ("base", base) ]
            (Printf.sprintf
               "%s: entry %S names base %S which is not in the registry"
               entry.name at base) ]
  | Ok chain ->
      let empty_axes =
        List.filter_map
          (fun (key, values) ->
             if values = [] then
               Some
                 (invalid entry.name "empty-axis"
                    [ ("axis", key) ]
                    (Printf.sprintf
                       "%s: axis %S has no values — the matrix would be \
                        empty" entry.name key))
             else None)
          entry.axes
      in
      let base_vars, overlay_invalids =
        List.fold_left
          (fun (v, invalids) e ->
             let where =
               if e.name = entry.name then "overlay"
               else Printf.sprintf "overlay (via base %S)" e.name
             in
             let v, more = apply_bindings ~entry:entry.name ~where v e.overlay in
             (v, invalids @ more))
          (default_vars, []) chain
      in
      let cells_rev, axis_invalids, _ =
        List.fold_left
          (fun (cells, invalids, index) bindings ->
             let v, more =
               apply_bindings ~entry:entry.name ~where:"axes" base_vars
                 bindings
             in
             if more = [] then ((index, bindings, v) :: cells, invalids, index + 1)
             else (cells, invalids @ more, index + 1))
          ([], [], 0)
          (combos entry.axes)
      in
      let invalids = empty_axes @ overlay_invalids @ axis_invalids in
      if invalids <> [] then Error invalids
      else
        let cells = List.rev cells_rev in
        let seen = Hashtbl.create 16 in
        let dups =
          List.filter_map
            (fun (index, bindings, v) ->
               let id = identity v in
               match Hashtbl.find_opt seen id with
               | Some first ->
                   Some
                     (invalid entry.name "duplicate-cell"
                        [ ("identity", id);
                          ("first", string_of_int first);
                          ("duplicate", string_of_int index) ]
                        (Printf.sprintf
                           "%s: cells %d and %d share identity %s — an axis \
                            value collapses onto the overlay or another axis \
                            value, so the matrix would run one cell twice"
                           entry.name first index id))
               | None ->
                   Hashtbl.add seen id index;
                   ignore bindings;
                   None)
            cells
        in
        if dups <> [] then Error dups else Ok cells

type cell = {
  index : int;
  bindings : (string * string) list;
  vars : vars;
}

let validate ?(registry = builtin) entry =
  match expand registry entry with Ok _ -> [] | Error invalids -> invalids

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
  List.rev dups @ List.concat_map (validate ~registry) registry

let cells ?(registry = builtin) entry =
  match expand registry entry with
  | Error invalids -> Error invalids
  | Ok cells ->
      Ok (List.map (fun (index, bindings, vars) -> { index; bindings; vars })
            cells)

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
