type outcome = {
  seed : int;
  pair : string;
  experiment : string;
  ok : bool;
  detail : string option;
}

let pp_outcome ppf o =
  Format.fprintf ppf "seed %d  %-22s %-12s %s" o.seed o.pair o.experiment
    (if o.ok then "identical"
     else "DIVERGED" ^ Option.fold ~none:"" ~some:(fun d -> ": " ^ d) o.detail)

let all_ok = List.for_all (fun o -> o.ok)

let render print v =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  print ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let first_divergence a b =
  if String.equal a b then None
  else
    let rec loop i la lb =
      match la, lb with
      | [], [] -> Some "outputs differ only in trailing whitespace"
      | x :: _, [] -> Some (Printf.sprintf "line %d: %S vs end of output" i x)
      | [], y :: _ -> Some (Printf.sprintf "line %d: end of output vs %S" i y)
      | x :: la, y :: lb ->
          if String.equal x y then loop (i + 1) la lb
          else Some (Printf.sprintf "line %d: %S vs %S" i x y)
    in
    loop 1 (String.split_on_char '\n' a) (String.split_on_char '\n' b)

(* Half a simulated day of the test-scale dynamics: enough churn for
   non-trivial F3L/F3R tables, small enough that the whole pair matrix
   runs in seconds on a Small scenario. *)
let default_dynamics =
  { Dynamics.short_config with Dynamics.duration = 12. *. 3600. }

(* ---- dynamic-vs-static soundness oracle ------------------------------ *)

(* The static closure bounds of [Qs_analysis.Static_surface] are claimed
   to over-approximate everything the dynamic pipeline can do. This suite
   makes the claim falsifiable, per seed:

   - stream: every announce a collector session records must stay inside
     the static exposure bound of its (peer, true origin) pair — audited
     byte-by-byte over a full simulated measurement (churn, policy racing,
     session resets and all);
   - hijack-same-prefix: every client a same-prefix hijack wins against
     must be statically capturable in an equal-specific race (the
     customer-cone-protected set really is safe);
   - hijack-more-specific: every client a sub-prefix hijack wins against
     must be inside the attacker's static hear set;
   - interception: every win must satisfy the static interception
     predicate (tight capture plus a surviving return path).

   Violations are impossible by the soundness argument in DESIGN.md §12;
   a finding here is a bug in the propagation engine, the attack modules,
   or the closure itself. *)
let static ?(dynamics = default_dynamics) ?(seeds = [ 1; 2; 3; 4; 5 ]) size =
  List.concat_map
    (fun seed ->
       let s = Scenario.build ~seed size in
       let surface = Static_surface.create s.Scenario.indexed in
       let outcome ~experiment problems =
         { seed; pair = "dynamic-vs-static"; experiment;
           ok = problems = [];
           detail =
             (match problems with
              | [] -> None
              | p :: rest ->
                  if rest = [] then Some p
                  else
                    Some
                      (Printf.sprintf "%s (and %d more)" p (List.length rest)))
         }
       in
       (* 1. Update-stream containment over a full measurement. *)
       let updates = ref [] in
       let (_ : Measurement.t) =
         Measurement.run ~dynamics ~observe:(fun u -> updates := u :: !updates)
           s
       in
       let stream =
         Surface_lint.check_stream surface
           ~origin_of:(Addressing.origin s.Scenario.addressing)
           (List.rev !updates)
         |> List.map (render Diag.pp)
       in
       (* 2-4. Attack-win containment over seeded attack draws. *)
       let rng = Scenario.rng_for s "check-static" in
       let guards = s.Scenario.consensus.Consensus.guard_pool in
       let ases = Array.of_list (As_graph.ases s.Scenario.graph) in
       let same = ref [] and sub = ref [] and icept = ref [] in
       let violation bucket fmt =
         Printf.ksprintf (fun msg -> bucket := msg :: !bucket) fmt
       in
       for _ = 1 to 8 do
         let relay = Rng.pick rng guards in
         match Scenario.guard_announcement s relay with
         | None -> ()
         | Some ann ->
             let victim = ann.Announcement.origin in
             let attacker =
               let rec draw () =
                 let a = Rng.pick rng ases in
                 if Asn.equal a victim then draw () else a
               in
               draw ()
             in
             let h =
               Hijack.same_prefix s.Scenario.indexed ~victim:ann ~attacker ()
             in
             List.iter
               (fun x ->
                  if
                    Hijack.wins h x
                    && not
                         (Static_surface.can_blackhole surface
                            ~same_prefix:true ~adversary:attacker ~victim x)
                  then
                    violation same
                      "%s wins same-prefix hijack of %s against %s outside \
                       the static bound"
                      (Asn.to_string attacker) (Asn.to_string victim)
                      (Asn.to_string x))
               h.Hijack.captured;
             (if Prefix.length ann.Announcement.prefix < 32 then
                let half, _ = Prefix.split ann.Announcement.prefix in
                let h =
                  Hijack.more_specific s.Scenario.indexed ~victim:ann
                    ~attacker ~sub:half ()
                in
                List.iter
                  (fun x ->
                     if
                       Hijack.wins h x
                       && not
                            (Static_surface.can_blackhole surface
                               ~adversary:attacker ~victim x)
                     then
                       violation sub
                         "%s wins more-specific hijack of %s against %s \
                          outside the static hear set"
                         (Asn.to_string attacker) (Asn.to_string victim)
                         (Asn.to_string x))
                  h.Hijack.captured);
             let i =
               Interception.run s.Scenario.indexed ~victim:ann ~attacker ()
             in
             List.iter
               (fun x ->
                  if
                    Interception.wins i x
                    && not
                         (Static_surface.can_intercept surface
                            ~adversary:attacker ~victim x)
                  then
                    violation icept
                      "%s wins interception of %s against %s outside the \
                       static feasible set"
                      (Asn.to_string attacker) (Asn.to_string victim)
                      (Asn.to_string x))
               i.Interception.captured
       done;
       [ outcome ~experiment:"stream" stream;
         outcome ~experiment:"hijack-same-prefix" (List.rev !same);
         outcome ~experiment:"hijack-more-specific" (List.rev !sub);
         outcome ~experiment:"interception" (List.rev !icept) ])
    seeds

(* ---- delta-vs-full propagation oracle -------------------------------- *)

(* [Propagate.Delta] claims to be a pure reimplementation of propagation:
   repairing the dirty frontier after each churn event must land on the
   same unique Gao-Rexford fixed point a full recompute finds. This suite
   makes the claim falsifiable at the system level, per seed:

   - the full collector update stream must be byte-identical with delta
     repair on and off;
   - the final (session, prefix) tables must agree as well;
   - worker count must not leak into delta-backed results;
   - and the delta run must actually take delta steps, otherwise the
     identity claims are vacuous. *)
let delta ?(dynamics = default_dynamics) ?(seeds = [ 1; 2; 3; 4; 5 ]) size =
  List.concat_map
    (fun seed ->
       let scenario = Scenario.build ~seed size in
       let capture ~delta =
         let buf = Buffer.create (1 lsl 16) in
         let ppf = Format.formatter_of_buffer buf in
         let m =
           Measurement.run
             ~dynamics:{ dynamics with Dynamics.delta }
             ~observe:(fun u -> Format.fprintf ppf "%a@." Update.pp u)
             scenario
         in
         Format.pp_print_flush ppf ();
         (Buffer.contents buf, m)
       in
       let final_tables m =
         List.map
           (fun (c : Measurement.cell) ->
              render
                (fun ppf () ->
                   Format.fprintf ppf "%a %a -> %s"
                     Update.pp_session c.Measurement.key.Measurement.session
                     Prefix.pp c.Measurement.key.Measurement.prefix
                     (match c.Measurement.final_set with
                      | None -> "-"
                      | Some set ->
                          Asn.Set.elements set
                          |> List.map Asn.to_string
                          |> String.concat ","))
                ())
           m.Measurement.cells
         |> List.sort String.compare |> String.concat "\n"
       in
       let f3l ~jobs m =
         Pool.with_pool ~jobs (fun exec ->
             render Path_changes.print (Path_changes.compute ~exec m))
       in
       let check ~pair ~experiment a b =
         { seed; pair; experiment;
           ok = String.equal a b;
           detail = first_divergence a b }
       in
       let stream_full, m_full = capture ~delta:false in
       let stream_delta, m_delta = capture ~delta:true in
       [ check ~pair:"delta-on-vs-off" ~experiment:"stream"
           stream_delta stream_full;
         check ~pair:"delta-on-vs-off" ~experiment:"final-tables"
           (final_tables m_delta) (final_tables m_full);
         check ~pair:"delta-jobs-1-vs-4" ~experiment:"F3L"
           (f3l ~jobs:1 m_delta) (f3l ~jobs:4 m_delta);
         { seed; pair = "delta-engaged"; experiment = "stats";
           ok = m_delta.Measurement.dyn_stats.Dynamics.delta_steps > 0;
           detail =
             (if m_delta.Measurement.dyn_stats.Dynamics.delta_steps > 0 then
                None
              else Some "delta run took zero delta steps") } ])
    seeds

let run ?(dynamics = default_dynamics) ?(seeds = [ 1; 2 ]) size =
  List.concat_map
    (fun seed ->
       let scenario = Scenario.build ~seed size in
       let check ~pair ~experiment a b =
         { seed; pair; experiment;
           ok = String.equal a b;
           detail = first_divergence a b }
       in
       let f3l ?(jobs = 1) m =
         Pool.with_pool ~jobs (fun exec ->
             render Path_changes.print (Path_changes.compute ~exec m))
       in
       let f3r ?(jobs = 1) m =
         Pool.with_pool ~jobs (fun exec ->
             render As_exposure.print (As_exposure.compute ~exec m))
       in
       let m = Measurement.run ~dynamics scenario in
       (* Pair 1: worker count must not leak into results. *)
       let m1 jobs =
         Pool.with_pool ~jobs (fun exec ->
             render Compromise.print
               (Compromise.compute ~rng:(Rng.of_int seed) ~exec ~trials:500
                  ~universe:800 ()))
       in
       (* Pair 2: chunking of the work queue is invisible too; exercise a
          real per-cell kernel rather than a toy function. *)
       let extra_counts chunk =
         Pool.with_pool ~jobs:2 (fun exec ->
             let cells = Array.of_list m.Measurement.cells in
             Pool.map ~chunk exec
               (fun c -> Asn.Set.cardinal (Measurement.extra_ases c))
               cells
             |> Array.to_list |> List.map string_of_int |> String.concat ",")
       in
       (* Pair 3: on a stream with no session resets the reset filter has
          nothing to remove, so enabling it must not change any cell. *)
       let quiet = { dynamics with Dynamics.resets_per_session = 0. } in
       let filtered = Measurement.run ~dynamics:quiet scenario in
       let unfiltered = Measurement.run ~dynamics:quiet ~no_filter:true scenario in
       [ check ~pair:"jobs-1-vs-2" ~experiment:"F3L"
           (f3l ~jobs:1 m) (f3l ~jobs:2 m);
         check ~pair:"jobs-1-vs-2" ~experiment:"F3R"
           (f3r ~jobs:1 m) (f3r ~jobs:2 m);
         check ~pair:"jobs-1-vs-2" ~experiment:"M1" (m1 1) (m1 2);
         check ~pair:"chunk-1-vs-64" ~experiment:"F3R-kernel"
           (extra_counts 1) (extra_counts 64);
         check ~pair:"filter-on-reset-free" ~experiment:"F3L"
           (f3l filtered) (f3l unfiltered);
         check ~pair:"filter-on-reset-free" ~experiment:"F3R"
           (f3r filtered) (f3r unfiltered) ])
    seeds
