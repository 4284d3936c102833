(* Tests for qs_exec: the deterministic domain pool — order preservation,
   seeded-sweep byte-identity across worker counts, submission-order
   reduction, per-domain resource isolation, exception propagation, nested
   submission detection, and the sweep metrics it reports. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- map ------------------------------------------------------------- *)

let test_map_order () =
  List.iter
    (fun jobs ->
       Pool.with_pool ~jobs (fun p ->
           let arr = Array.init 257 (fun i -> i) in
           let out = Pool.map p (fun x -> x * x) arr in
           check_int (Printf.sprintf "length at jobs=%d" jobs) 257
             (Array.length out);
           Array.iteri
             (fun i v ->
                check_int (Printf.sprintf "slot %d at jobs=%d" i jobs) (i * i) v)
             out))
    [ 1; 2; 4 ]

let test_map_empty () =
  Pool.with_pool ~jobs:3 (fun p ->
      check_int "empty" 0 (Array.length (Pool.map p (fun x -> x) [||]));
      check_bool "empty list" true (Pool.map_list p (fun x -> x) [] = []))

let test_map_chunk_param () =
  Pool.with_pool ~jobs:2 (fun p ->
      let arr = Array.init 100 (fun i -> i) in
      List.iter
        (fun chunk ->
           let out = Pool.map ~chunk p (fun x -> x + 1) arr in
           check_int (Printf.sprintf "chunk=%d" chunk) 100 (Array.length out);
           Array.iteri (fun i v -> check_int "value" (i + 1) v) out)
        [ 1; 7; 100; 1000 ];
      Alcotest.check_raises "chunk 0"
        (Invalid_argument "Pool.map: chunk must be positive") (fun () ->
          ignore (Pool.map ~chunk:0 p (fun x -> x) arr)))

let test_create_bounds () =
  Alcotest.check_raises "jobs 0"
    (Invalid_argument "Pool.create: jobs must be in [1, 512]") (fun () ->
      ignore (Pool.create ~jobs:0 ()));
  Alcotest.check_raises "jobs 1000"
    (Invalid_argument "Pool.create: jobs must be in [1, 512]") (fun () ->
      ignore (Pool.create ~jobs:1000 ()))

(* ---- determinism ------------------------------------------------------ *)

(* A miniature Monte-Carlo kernel: enough RNG consumption per item that a
   stream mixup would show immediately. *)
let kernel rng x =
  let acc = ref (float_of_int x) in
  for _ = 1 to 50 do
    acc := !acc +. Rng.float rng 1.0
  done;
  !acc

let seeded_run ~jobs ~chunk seed n =
  Pool.with_pool ~jobs (fun p ->
      let rng = Rng.of_int seed in
      Pool.map_seeded ~chunk p ~rng kernel (Array.init n (fun i -> i)))

let test_map_seeded_identical () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30
       ~name:"map_seeded byte-identical at jobs=1 and jobs=4"
       QCheck.(pair small_int (int_bound 200))
       (fun (seed, n) ->
          let n = n + 1 in
          let a = seeded_run ~jobs:1 ~chunk:(1 + (seed mod 5)) seed n in
          let b = seeded_run ~jobs:4 ~chunk:(1 + (n mod 7)) seed n in
          a = b))

let test_map_seeded_advances_rng () =
  (* map_seeded consumes one split per item off the caller's rng, the same
     way at every worker count, so downstream draws stay aligned. *)
  let tail jobs =
    Pool.with_pool ~jobs (fun p ->
        let rng = Rng.of_int 5 in
        let _ = Pool.map_seeded p ~rng kernel (Array.init 17 (fun i -> i)) in
        Rng.int64 rng)
  in
  Alcotest.(check int64) "same rng state after sweep" (tail 1) (tail 3)

let test_fold_submission_order () =
  List.iter
    (fun jobs ->
       Pool.with_pool ~jobs (fun p ->
           let arr = Array.init 64 (fun i -> i) in
           let s =
             Pool.fold ~chunk:3 p ~f:string_of_int
               ~reduce:(fun acc x -> acc ^ "," ^ x)
               ~init:"" arr
           in
           let expected =
             Array.fold_left
               (fun acc x -> acc ^ "," ^ string_of_int x)
               "" arr
           in
           Alcotest.(check string)
             (Printf.sprintf "reduction order at jobs=%d" jobs) expected s))
    [ 1; 4 ]

(* ---- per-domain resources --------------------------------------------- *)

let test_per_domain_isolation () =
  let counter = Atomic.make 0 in
  let resource = Pool.per_domain (fun () -> Atomic.fetch_and_add counter 1) in
  Pool.with_pool ~jobs:4 (fun p ->
      (* Slow tasks so several domains actually participate. *)
      let observations =
        Pool.map ~chunk:1 p
          (fun _ ->
             let r = Pool.get resource in
             let x = ref 0 in
             for i = 1 to 20_000 do
               x := !x + i
             done;
             ignore !x;
             ((Domain.self () :> int), r))
          (Array.init 64 (fun i -> i))
      in
      (* Within one domain, always the same instance. *)
      let by_domain = Hashtbl.create 8 in
      Array.iter
        (fun (d, r) ->
           match Hashtbl.find_opt by_domain d with
           | None -> Hashtbl.replace by_domain d r
           | Some r' ->
               check_int (Printf.sprintf "domain %d reuses its instance" d) r' r)
        observations;
      (* Never more instances than domains. *)
      check_bool "at most jobs instances" true (Atomic.get counter <= 4))

(* ---- failure handling -------------------------------------------------- *)

exception Boom

let test_exception_propagates () =
  Pool.with_pool ~jobs:3 (fun p ->
      let raised =
        try
          ignore
            (Pool.map ~chunk:1 p
               (fun x -> if x = 13 then raise Boom else x)
               (Array.init 32 (fun i -> i)));
          false
        with Boom -> true
      in
      check_bool "task exception re-raised in caller" true raised;
      (* The pool survives a failed sweep. *)
      let out = Pool.map p (fun x -> x + 1) [| 1; 2; 3 |] in
      check_bool "pool usable after failure" true (out = [| 2; 3; 4 |]))

let test_nested_submission_rejected () =
  Pool.with_pool ~jobs:2 (fun p ->
      let raised =
        try
          ignore
            (Pool.map p
               (fun x -> Array.length (Pool.map p (fun y -> y) [| x |]))
               [| 1; 2; 3 |]);
          false
        with Invalid_argument _ -> true
      in
      check_bool "nested submission raises" true raised)

let test_shutdown_rejects () =
  let p = Pool.create ~jobs:2 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  let raised =
    try
      ignore (Pool.map p (fun x -> x) [| 1 |]);
      false
    with Invalid_argument _ -> true
  in
  check_bool "shut pool rejects work" true raised

(* ---- metrics --------------------------------------------------------- *)

let counter name =
  match Metrics.value name with
  | Some (Metrics.Counter_v n) -> n
  | _ -> Alcotest.failf "%s is not a counter" name

let hist name =
  match Metrics.value name with
  | Some (Metrics.Hist_v h) -> h
  | _ -> Alcotest.failf "%s is not a histogram" name

(* The registry is the pool's only report: each sweep adds 1 to
   [exec.sweeps], its chunk count to [exec.chunks] and one observation to
   each [exec.*_seconds] histogram, at any width. Busy and wait seconds
   are lower bounds per sweep, so only their sign is checked. *)
let test_sweep_metrics () =
  let seconds =
    [ "exec.sweep_seconds"; "exec.busy_seconds"; "exec.wait_seconds" ]
  in
  List.iter
    (fun jobs ->
       Pool.with_pool ~jobs (fun p ->
           let arr = Array.init 64 (fun i -> i) in
           for call = 1 to 3 do
             let sweeps = counter "exec.sweeps"
             and chunks = counter "exec.chunks"
             and counts = List.map (fun n -> (hist n).Metrics.count) seconds in
             let chunk = 3 * call in
             ignore (Pool.map ~chunk p (fun x -> x * x) arr);
             let at what = Printf.sprintf "%s, jobs=%d call %d" what jobs call in
             check_int (at "sweeps") (sweeps + 1) (counter "exec.sweeps");
             check_int (at "chunks") (chunks + ((64 + chunk - 1) / chunk))
               (counter "exec.chunks");
             List.iter2
               (fun n c -> check_int (at n) (c + 1) (hist n).Metrics.count)
               seconds counts;
             check_bool (at "busy sum non-negative") true
               ((hist "exec.busy_seconds").Metrics.sum >= 0.);
             check_bool (at "wait sum non-negative") true
               ((hist "exec.wait_seconds").Metrics.sum >= 0.)
           done))
    [ 1; 4 ]

let () =
  Alcotest.run "qs_exec"
    [ ("pool",
       [ Alcotest.test_case "map preserves order" `Quick test_map_order;
         Alcotest.test_case "map on empty input" `Quick test_map_empty;
         Alcotest.test_case "chunk parameter" `Quick test_map_chunk_param;
         Alcotest.test_case "create bounds" `Quick test_create_bounds;
         Alcotest.test_case "fold reduces in submission order" `Quick
           test_fold_submission_order ]);
      ("determinism",
       [ Alcotest.test_case "map_seeded identical across jobs" `Quick
           test_map_seeded_identical;
         Alcotest.test_case "map_seeded advances caller rng stably" `Quick
           test_map_seeded_advances_rng ]);
      ("resources",
       [ Alcotest.test_case "per_domain isolation" `Quick
           test_per_domain_isolation ]);
      ("failures",
       [ Alcotest.test_case "exceptions propagate" `Quick
           test_exception_propagates;
         Alcotest.test_case "nested submission rejected" `Quick
           test_nested_submission_rejected;
         Alcotest.test_case "shutdown" `Quick test_shutdown_rejects ]);
      ("metrics",
       [ Alcotest.test_case "sweeps report to the registry" `Quick
           test_sweep_metrics ]) ]
