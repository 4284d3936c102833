let max_buckets = 86_400

let serve_config_invalid =
  { Diag.code = "QS307"; slug = "serve-config-invalid";
    severity = Diag.Error;
    doc = "a quicksand-serve configuration is internally inconsistent or \
           monitors prefixes the scenario does not announce";
    explain =
      Printf.sprintf
        "The serve subsystem's correctness argument leans on three static \
         relations between its knobs, all over finite values (NaN or \
         infinity defeats every comparison): the window must be a positive \
         multiple of the bucket width, with at most %d buckets (the ring \
         buffer has exactly window/bucket slots, so a remainder would \
         silently shrink the window, and every key whose path changes \
         allocates one ring); the extra-AS threshold must lie within \
         (0, window] (a threshold beyond the window could let a key be \
         evicted before a satisfiable alert timer fires, breaking the \
         streaming = batch equivalence the replay verifier enforces); and \
         the ingest queue and decode chunk must be positive with chunk <= \
         capacity (a chunk larger than the queue would overflow on every \
         refill). Monitored (client prefix, guard prefix) pairs must also \
         name prefixes the scenario actually announces — a typo'd prefix \
         would make the monitor silently watch nothing. Typical causes: \
         hand-edited CLI flags, or a scenario regenerated under a \
         different seed than the monitoring config was written for."
        max_buckets }

let rules = [ serve_config_invalid ]

type config_view = {
  window : float;
  bucket : float;
  threshold : float;
  slack : float;
  capacity : int;
  chunk : int;
  monitored : (Prefix.t * Prefix.t) list;
}

let diag ?context fmt = Diag.msgf serve_config_invalid ?context fmt

(* The comparisons below are all false on NaN, so every float knob is
   first required to be finite. *)
let positive x = Float.is_finite x && x > 0.

let window_problem ~window ~bucket =
  if not (positive window && positive bucket) then
    Some "window and bucket width must be positive and finite"
  else
    let k = Float.round (window /. bucket) in
    if k < 1. || Float.abs ((k *. bucket) -. window) > 1e-6 *. window then
      Some "window must be a positive multiple of the bucket width"
    else if k > float_of_int max_buckets then
      Some
        (Printf.sprintf
           "window / bucket is %g ring slots per key, above the bound of %d: \
            widen the bucket or shorten the window" k max_buckets)
    else None

let threshold_problem ~window ~threshold =
  if not (positive threshold) || (window > 0. && threshold > window) then
    Some "extra-AS threshold must lie within (0, window]"
  else None

let slack_problem slack =
  if not (Float.is_finite slack && slack >= 0.) then
    Some "ingest slack must be finite and non-negative"
  else None

let capacity_problem capacity =
  if capacity <= 0 then Some "ingest queue capacity must be positive"
  else None

let check ?scenario (v : config_view) =
  let found context = function
    | None -> []
    | Some msg -> [ Diag.make serve_config_invalid ~context msg ]
  in
  let structural =
    found
      [ ("window", Printf.sprintf "%g" v.window);
        ("bucket", Printf.sprintf "%g" v.bucket) ]
      (window_problem ~window:v.window ~bucket:v.bucket)
    @ found
        [ ("threshold", Printf.sprintf "%g" v.threshold);
          ("window", Printf.sprintf "%g" v.window) ]
        (threshold_problem ~window:v.window ~threshold:v.threshold)
    @ found [ ("slack", Printf.sprintf "%g" v.slack) ] (slack_problem v.slack)
    @ (if
         capacity_problem v.capacity <> None || v.chunk <= 0
         || v.chunk > v.capacity
       then
         [ diag
             ~context:
               [ ("capacity", string_of_int v.capacity);
                 ("chunk", string_of_int v.chunk) ]
             "ingest queue capacity and chunk must be positive with \
              chunk <= capacity" ]
       else [])
  in
  let pairs =
    match scenario with
    | None -> []
    | Some (s : Scenario.t) ->
        let announced =
          List.map fst (Addressing.announced s.Scenario.addressing)
        in
        let known p = List.exists (Prefix.equal p) announced in
        List.concat_map
          (fun (client, guard) ->
             (if known client then []
              else
                [ diag
                    ~context:
                      [ ("role", "client");
                        ("prefix", Prefix.to_string client) ]
                    "monitored client prefix %a is not announced in the \
                     scenario" Prefix.pp client ])
             @ (if not (known guard) then
                  [ diag
                      ~context:
                        [ ("role", "guard");
                          ("prefix", Prefix.to_string guard) ]
                      "monitored guard prefix %a is not announced in the \
                       scenario" Prefix.pp guard ]
                else if
                  not
                    (Tor_prefix.is_tor_prefix s.Scenario.tor_prefixes guard)
                then
                  [ diag
                      ~context:
                        [ ("role", "guard");
                          ("prefix", Prefix.to_string guard) ]
                      "monitored guard prefix %a hosts no Tor relay in the \
                       scenario" Prefix.pp guard ]
                else []))
          v.monitored
  in
  structural @ pairs
