(* Unit and property tests for qs_net: RNG, IPv4, prefixes, trie, pqueue. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.of_int 7 and b = Rng.of_int 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

(* The published SplitMix64 stream for seed 0 (Steele, Lea & Flood's
   reference implementation): an oracle independent of how the state is
   stored. *)
let test_rng_splitmix_vectors () =
  let t = Rng.create 0L in
  List.iter
    (fun expected -> Alcotest.(check int64) "SplitMix64 from seed 0" expected (Rng.int64 t))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]

let test_rng_split_independent () =
  let a = Rng.of_int 7 in
  let c = Rng.split a in
  let x = Rng.int64 a and y = Rng.int64 c in
  check_bool "split streams differ" true (not (Int64.equal x y))

let test_rng_split_n_stable () =
  (* split_n must be equivalent to n sequential splits, in order — the
     executor's per-item streams depend on this exact correspondence. *)
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  let siblings = Rng.split_n a 8 in
  let manual = Array.init 8 (fun _ -> Rng.split b) in
  Array.iteri
    (fun i s ->
       Alcotest.(check int64)
         (Printf.sprintf "sibling %d matches a sequential split" i)
         (Rng.int64 manual.(i)) (Rng.int64 s))
    siblings;
  (* and the parents end up in the same state *)
  Alcotest.(check int64) "parents advanced identically" (Rng.int64 b) (Rng.int64 a);
  check_int "empty split allowed" 0 (Array.length (Rng.split_n (Rng.of_int 1) 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Rng.split_n: negative count")
    (fun () -> ignore (Rng.split_n (Rng.of_int 1) (-1)))

let test_rng_split_n_independent () =
  (* Sibling streams must look unrelated: distinct outputs and a Pearson
     correlation near zero between any adjacent pair. *)
  let siblings = Rng.split_n (Rng.of_int 99) 6 in
  let n = 2_000 in
  let seqs =
    Array.map (fun s -> Array.init n (fun _ -> Rng.float s 1.0)) siblings
  in
  for i = 0 to Array.length seqs - 2 do
    let x = seqs.(i) and y = seqs.(i + 1) in
    check_bool "distinct streams" true (x.(0) <> y.(0) || x.(1) <> y.(1));
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean x and my = mean y in
    let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
    for k = 0 to n - 1 do
      let dx = x.(k) -. mx and dy = y.(k) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    let r = !sxy /. sqrt (!sxx *. !syy) in
    check_bool
      (Printf.sprintf "siblings %d,%d uncorrelated (r=%g)" i (i + 1) r)
      true
      (Float.abs r < 0.15)
  done

let test_rng_int_bounds () =
  let rng = Rng.of_int 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects () =
  let rng = Rng.of_int 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.of_int 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check_bool "in range" true (v >= 0. && v < 2.5)
  done

(* Rng.float and Rng.normal are leaves the hot loops call across a module
   boundary (the packet simulator's jitter and loss draws, the consensus
   drift). Built without -opaque and with -inline (the root dune file),
   they inline into the caller and their results stay unboxed; a build
   that loses either flag boxes each result, 2 words a draw, and fails
   here. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.of_int 13 in
  let sum = ref 0. in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum +. Rng.float rng 2.5
  done;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "10 000 Rng.float draws allocate 0 minor words (%.0f)" words)
    true (words = 0.);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum +. Rng.normal rng ~mu:1.0 ~sigma:0.5
  done;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "10 000 Rng.normal draws allocate 0 minor words (%.0f)" words)
    true (words = 0.);
  check_bool "the draws are finite" true (Float.is_finite !sum)

let test_rng_weighted_index () =
  let rng = Rng.of_int 5 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.weighted_index rng [| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_bool "heaviest wins" true (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  let frac2 = float_of_int counts.(2) /. 30_000. in
  check_bool "roughly 0.7" true (Float.abs (frac2 -. 0.7) < 0.05)

let test_rng_weighted_rejects () =
  let rng = Rng.of_int 5 in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.weighted_index: all-zero weights")
    (fun () -> ignore (Rng.weighted_index rng [| 0.; 0. |]))

(* The fold-and-recurse [weighted_index] the loop version replaced, kept
   as the reference: the same sums in the same order, so the same index. *)
let reference_weighted_index rng w =
  let n = Array.length w in
  let total = Array.fold_left ( +. ) 0. w in
  let target = Rng.float rng total in
  let rec loop i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else loop (i + 1) acc
  in
  loop 0 0.

let prop_weighted_index_reference =
  QCheck.Test.make ~name:"weighted_index = fold reference on twin streams"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (list_of_size Gen.(1 -- 60) (int_bound 50)))
    (fun (seed, ws) ->
       (* integer-valued and fractional weights, zeros included *)
       let w =
         Array.of_list
           (List.mapi (fun i x -> float_of_int x /. float_of_int (1 + (i mod 3))) ws)
       in
       QCheck.assume (Array.exists (fun x -> x > 0.) w);
       let a = Rng.of_int seed and b = Rng.of_int seed in
       List.for_all
         (fun _ -> Rng.weighted_index a w = reference_weighted_index b w)
         (List.init 20 Fun.id)
       && Rng.int64 a = Rng.int64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.of_int 13 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.of_int 17 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Rng.sample_without_replacement rng 8 arr in
  check_int "8 elements" 8 (List.length s);
  check_int "distinct" 8 (List.length (List.sort_uniq Int.compare s));
  let all = Rng.sample_without_replacement rng 50 arr in
  check_int "capped at n" 20 (List.length all)

let test_rng_exponential_mean () =
  let rng = Rng.of_int 23 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean ~ 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_geometric () =
  let rng = Rng.of_int 29 in
  check_int "p=1 is 0" 0 (Rng.geometric rng 1.0);
  for _ = 1 to 1000 do
    check_bool "non-negative" true (Rng.geometric rng 0.3 >= 0)
  done

(* ---- Ipv4 ----------------------------------------------------------- *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> check_string "roundtrip" s (Ipv4.to_string (Ipv4.of_string s)))
    [ "0.0.0.0"; "10.1.2.3"; "255.255.255.255"; "192.168.0.1"; "78.46.0.0" ]

let test_ipv4_rejects () =
  List.iter
    (fun s ->
       check_bool (Printf.sprintf "reject %s" s) true
         (Option.is_none (Ipv4.of_string_opt s)))
    [ "256.0.0.1"; "1.2.3"; "1.2.3.4.5"; "a.b.c.d"; ""; "1..2.3"; "-1.2.3.4" ]

let test_ipv4_bits () =
  let a = Ipv4.of_string "128.0.0.1" in
  check_bool "msb set" true (Ipv4.bit a 0);
  check_bool "bit 1 clear" false (Ipv4.bit a 1);
  check_bool "lsb set" true (Ipv4.bit a 31)

let test_ipv4_arith () =
  check_string "succ wraps" "0.0.0.0"
    (Ipv4.to_string (Ipv4.succ (Ipv4.of_string "255.255.255.255")));
  check_string "add" "10.0.1.0"
    (Ipv4.to_string (Ipv4.add (Ipv4.of_string "10.0.0.0") 256))

let prop_ipv4_string_roundtrip =
  QCheck.Test.make ~name:"ipv4 of_string/to_string roundtrip" ~count:500
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
       let ip = Ipv4.of_octets a b c d in
       Ipv4.equal ip (Ipv4.of_string (Ipv4.to_string ip)))

(* ---- Prefix --------------------------------------------------------- *)

let test_prefix_canonical () =
  let p = Prefix.make (Ipv4.of_string "10.1.2.3") 8 in
  check_string "host bits zeroed" "10.0.0.0/8" (Prefix.to_string p)

let test_prefix_mem () =
  let p = Prefix.of_string "78.46.0.0/15" in
  check_bool "inside" true (Prefix.mem (Ipv4.of_string "78.47.255.255") p);
  check_bool "outside" false (Prefix.mem (Ipv4.of_string "78.48.0.0") p)

let test_prefix_subsumes () =
  let p15 = Prefix.of_string "78.46.0.0/15" in
  let p20 = Prefix.of_string "78.46.16.0/20" in
  check_bool "p15 subsumes p20" true (Prefix.subsumes p15 p20);
  check_bool "p20 not subsumes p15" false (Prefix.subsumes p20 p15);
  check_bool "self" true (Prefix.subsumes p15 p15);
  check_bool "overlap" true (Prefix.overlaps p20 p15)

let test_prefix_split () =
  let p = Prefix.of_string "10.0.0.0/8" in
  let lo, hi = Prefix.split p in
  check_string "low half" "10.0.0.0/9" (Prefix.to_string lo);
  check_string "high half" "10.128.0.0/9" (Prefix.to_string hi);
  Alcotest.check_raises "cannot split /32"
    (Invalid_argument "Prefix.split: cannot split a /32")
    (fun () -> ignore (Prefix.split (Prefix.host (Ipv4.of_string "1.2.3.4"))))

let test_prefix_nth () =
  let p = Prefix.of_string "10.0.0.0/30" in
  check_string "nth 3" "10.0.0.3" (Ipv4.to_string (Prefix.nth p 3));
  Alcotest.check_raises "nth out of range"
    (Invalid_argument "Prefix.nth: index out of range")
    (fun () -> ignore (Prefix.nth p 4))

let prefix_gen =
  QCheck.Gen.(
    map2
      (fun addr len -> Prefix.make (Ipv4.of_int_trunc addr) len)
      (int_bound 0xFFFFFFF |> map (fun x -> x * 16))
      (int_bound 32))

let arbitrary_prefix = QCheck.make ~print:Prefix.to_string prefix_gen

let prop_prefix_split_partitions =
  QCheck.Test.make ~name:"split halves partition the parent" ~count:300
    arbitrary_prefix
    (fun p ->
       QCheck.assume (Prefix.length p < 32);
       let lo, hi = Prefix.split p in
       Prefix.subsumes p lo && Prefix.subsumes p hi
       && (not (Prefix.overlaps lo hi))
       && Prefix.size lo + Prefix.size hi = Prefix.size p)

let prop_prefix_mem_first_last =
  QCheck.Test.make ~name:"first and last are members" ~count:300
    arbitrary_prefix
    (fun p -> Prefix.mem (Prefix.first p) p && Prefix.mem (Prefix.last p) p)

(* ---- Prefix_trie ---------------------------------------------------- *)

let test_trie_basics () =
  let t =
    Prefix_trie.empty
    |> Prefix_trie.add (Prefix.of_string "10.0.0.0/8") "a"
    |> Prefix_trie.add (Prefix.of_string "10.1.0.0/16") "b"
    |> Prefix_trie.add (Prefix.of_string "10.1.2.0/24") "c"
  in
  check_int "cardinal" 3 (Prefix_trie.cardinal t);
  Alcotest.(check (option string)) "exact find"
    (Some "b") (Prefix_trie.find (Prefix.of_string "10.1.0.0/16") t);
  (match Prefix_trie.longest_match (Ipv4.of_string "10.1.2.3") t with
   | Some (p, v) ->
       check_string "lpm prefix" "10.1.2.0/24" (Prefix.to_string p);
       check_string "lpm value" "c" v
   | None -> Alcotest.fail "expected a match");
  (match Prefix_trie.longest_match (Ipv4.of_string "10.9.0.1") t with
   | Some (p, _) -> check_string "falls back" "10.0.0.0/8" (Prefix.to_string p)
   | None -> Alcotest.fail "expected a match");
  check_bool "no match outside" true
    (Option.is_none (Prefix_trie.longest_match (Ipv4.of_string "11.0.0.1") t))

let test_trie_remove () =
  let p = Prefix.of_string "10.1.0.0/16" in
  let t = Prefix_trie.add p 1 Prefix_trie.empty in
  let t = Prefix_trie.remove p t in
  check_bool "removed" true (Prefix_trie.is_empty t)

let test_trie_matches_order () =
  let t =
    Prefix_trie.of_list
      [ (Prefix.of_string "10.0.0.0/8", 8);
        (Prefix.of_string "10.1.0.0/16", 16);
        (Prefix.of_string "10.1.2.0/24", 24) ]
  in
  let ms = Prefix_trie.matches (Ipv4.of_string "10.1.2.3") t in
  Alcotest.(check (list int)) "most specific first" [ 24; 16; 8 ]
    (List.map snd ms)

let test_trie_covered () =
  let t =
    Prefix_trie.of_list
      [ (Prefix.of_string "10.0.0.0/8", ());
        (Prefix.of_string "10.1.0.0/16", ());
        (Prefix.of_string "10.2.0.0/16", ());
        (Prefix.of_string "11.0.0.0/8", ()) ]
  in
  let covered = Prefix_trie.covered (Prefix.of_string "10.0.0.0/8") t in
  check_int "three inside" 3 (List.length covered);
  let covered16 = Prefix_trie.covered (Prefix.of_string "10.1.0.0/16") t in
  check_int "one inside /16" 1 (List.length covered16)

let test_trie_fold_order () =
  let ps =
    [ "10.0.0.0/8"; "9.0.0.0/8"; "10.1.0.0/16"; "11.0.0.0/8"; "10.0.0.0/7" ]
    |> List.map Prefix.of_string
  in
  let t = Prefix_trie.of_list (List.map (fun p -> (p, ())) ps) in
  let keys = Prefix_trie.keys t in
  let sorted = List.sort Prefix.compare ps in
  Alcotest.(check (list string)) "fold in Prefix.compare order"
    (List.map Prefix.to_string sorted)
    (List.map Prefix.to_string keys)

let prop_trie_lpm_vs_brute_force =
  let pair_gen = QCheck.Gen.(list_size (int_range 1 30) prefix_gen) in
  QCheck.Test.make ~name:"trie longest_match equals brute force" ~count:200
    (QCheck.make pair_gen)
    (fun prefixes ->
       let entries = List.mapi (fun i p -> (p, i)) prefixes in
       let t = Prefix_trie.of_list entries in
       (* dedup (later binding wins in trie) mirrored in the assoc list *)
       let dedup =
         List.fold_left (fun acc (p, i) ->
             (p, i) :: List.filter (fun (q, _) -> not (Prefix.equal p q)) acc)
           [] entries
       in
       let addr = Ipv4.of_int_trunc (Hashtbl.hash prefixes * 2654435761) in
       let brute =
         dedup
         |> List.filter (fun (p, _) -> Prefix.mem addr p)
         |> List.sort (fun (p, _) (q, _) ->
             Int.compare (Prefix.length q) (Prefix.length p))
       in
       match (Prefix_trie.longest_match addr t, brute) with
       | None, [] -> true
       | Some (p, _), (q, _) :: _ -> Prefix.length p = Prefix.length q && Prefix.mem addr p
       | Some _, [] | None, _ :: _ -> false)

let prop_trie_add_find =
  QCheck.Test.make ~name:"add then find" ~count:300
    QCheck.(pair arbitrary_prefix small_int)
    (fun (p, v) ->
       let t = Prefix_trie.add p v Prefix_trie.empty in
       Prefix_trie.find p t = Some v)

(* ---- Pqueue --------------------------------------------------------- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun (k, v) -> Pqueue.push q k v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let drained = List.map snd (Pqueue.drain q) in
  Alcotest.(check (list string)) "key order" [ "z"; "a"; "b"; "c" ] drained

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ]
    (List.map snd (Pqueue.drain q))

let test_pqueue_pop_until () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k k) [ 5.; 1.; 3.; 2.; 4. ];
  let early = Pqueue.pop_until q 3. in
  Alcotest.(check (list (float 0.01))) "popped <= 3" [ 1.; 2.; 3. ]
    (List.map fst early);
  check_int "rest remains" 2 (Pqueue.length q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains sorted" ~count:300
    QCheck.(list (map Float.abs float))
    (fun keys ->
       let q = Pqueue.create () in
       List.iter (fun k -> Pqueue.push q k ()) keys;
       let out = List.map fst (Pqueue.drain q) in
       out = List.sort Float.compare keys)

(* Popped entries must not be retained by the heap array. The pushes and
   the pop happen in [@inline never] helpers so no stack slot of the test
   body itself keeps the popped value reachable; the queue stays live past
   the GC, or the whole heap would be garbage and the check vacuous. *)
let[@inline never] pqueue_push_two_pop_one q weak =
  Pqueue.push q 1.0 (ref 42);
  Pqueue.push q 2.0 (ref 43);
  match Pqueue.pop q with
  | Some (_, v) -> Weak.set weak 0 (Some v)
  | None -> Alcotest.fail "pop returned None"

let test_pqueue_pop_releases () =
  let q = Pqueue.create () in
  let weak = Weak.create 1 in
  pqueue_push_two_pop_one q weak;
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check weak 0);
  check_int "queue still live" 1 (Pqueue.length q)

(* Growing the heap must not pin the value whose push triggered the
   growth: the old representation initialized the doubled array with a
   dummy entry built from it, leaving copies in every slot past [size].
   After draining and refilling the live prefix with fresh values, only
   those vacant-tail slots could still reference the watched value. *)
let[@inline never] pqueue_grow_with_watched q weak =
  for i = 1 to 16 do
    Pqueue.push q (float_of_int i) (ref i)
  done;
  let watched = ref 17 in
  Weak.set weak 0 (Some watched);
  Pqueue.push q 17.0 watched;  (* 17th push: capacity doubles *)
  check_int "drained all" 17 (List.length (Pqueue.drain q));
  for i = 1 to 17 do
    Pqueue.push q (float_of_int i) (ref (100 + i))
  done

let test_pqueue_grow_releases () =
  let q = Pqueue.create () in
  let weak = Weak.create 1 in
  pqueue_grow_with_watched q weak;
  Gc.full_major ();
  Alcotest.(check bool)
    "vacant capacity does not retain the growth-triggering value" false
    (Weak.check weak 0);
  check_int "refilled queue live" 17 (Pqueue.length q)

let prop_pqueue_stable_sort =
  QCheck.Test.make ~name:"pop order is a stable sort by key" ~count:300
    QCheck.(list (map (fun k -> Float.abs (float_of_int k)) small_int))
    (fun keys ->
       let q = Pqueue.create () in
       List.iteri (fun i k -> Pqueue.push q k (i, k)) keys;
       let expected =
         List.mapi (fun i k -> (i, k)) keys
         |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
       in
       List.map snd (Pqueue.drain q) = expected)

let prop_pqueue_pop_until_boundary =
  QCheck.Test.make ~name:"pop_until boundary is inclusive" ~count:300
    QCheck.(pair (list (map Float.abs float)) (map Float.abs float))
    (fun (keys, limit) ->
       let q = Pqueue.create () in
       List.iter (fun k -> Pqueue.push q k k) keys;
       let popped = List.map fst (Pqueue.pop_until q limit) in
       let expected_popped =
         List.sort Float.compare (List.filter (fun k -> k <= limit) keys)
       in
       popped = expected_popped
       && Pqueue.length q = List.length keys - List.length expected_popped
       && (Pqueue.is_empty q || Pqueue.min_key q > limit)
       && not (Pqueue.due q limit))

(* Handles against a list model. Keys come from a small set so that equal
   keys are common; the model pops the least (key, arrival) pair, where
   every push and every arm takes the next arrival number. *)
type pq_op = Push of int | Arm of int * int | Cancel of int | Pop

let pq_keys = [| 0.; 1.; 1.; 2.5 |]
let pq_handles = 3

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Push k) (int_bound 3));
        (4, map2 (fun h k -> Arm (h, k)) (int_bound (pq_handles - 1)) (int_bound 3));
        (2, map (fun h -> Cancel h) (int_bound (pq_handles - 1)));
        (3, return Pop) ])

let pq_op_print = function
  | Push k -> Printf.sprintf "push %g" pq_keys.(k)
  | Arm (h, k) -> Printf.sprintf "arm h%d %g" h pq_keys.(k)
  | Cancel h -> Printf.sprintf "cancel h%d" h
  | Pop -> "pop"

type pq_label = Pushed of int | Handle of int

let prop_pqueue_handles_model =
  QCheck.Test.make ~name:"handles = list model (arm, re-arm, cancel, ties)" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pq_op_print ops))
       QCheck.Gen.(list_size (int_bound 60) pq_op_gen))
    (fun ops ->
       let q = Pqueue.create () in
       let handles = Array.init pq_handles (fun h -> Pqueue.handle (Handle h)) in
       (* model: (key, arrival, label), unordered *)
       let model = ref [] and arrival = ref 0 and pushes = ref 0 in
       let add key label =
         model := (key, !arrival, label) :: !model;
         incr arrival
       in
       let drop label = model := List.filter (fun (_, _, l) -> l <> label) !model in
       let model_pop () =
         match List.sort compare !model with
         | [] -> None
         | ((key, _, label) as top) :: _ ->
             model := List.filter (fun e -> e <> top) !model;
             Some (key, label)
       in
       let ok = ref true in
       List.iter
         (fun op ->
            match op with
            | Push k ->
                Pqueue.push q pq_keys.(k) (Pushed !pushes);
                add pq_keys.(k) (Pushed !pushes);
                incr pushes
            | Arm (h, k) ->
                Pqueue.arm q handles.(h) pq_keys.(k);
                drop (Handle h);
                add pq_keys.(k) (Handle h)
            | Cancel h ->
                Pqueue.cancel q handles.(h);
                drop (Handle h)
            | Pop -> if Pqueue.pop q <> model_pop () then ok := false)
         ops;
       let queued_agree =
         List.for_all
           (fun i ->
              Pqueue.queued handles.(i) = List.exists (fun (_, _, l) -> l = Handle i) !model)
           (List.init pq_handles Fun.id)
       in
       let length_agree = Pqueue.length q = List.length !model in
       let model_rest =
         List.map (fun (key, _, label) -> (key, label)) (List.sort compare !model)
       in
       !ok && queued_agree && length_agree && Pqueue.drain q = model_rest
       && Array.for_all (fun h -> not (Pqueue.queued h)) handles)

(* A reference model with explicit arrival numbers: [Take] takes a number
   without queueing, [Arm_at] queues a handle under the oldest number
   taken and not yet used (or under a fresh one when none is left). The
   model keeps every pending entry as (key, arrival, label) in one list
   and pops its least element; keys come from a small set, so ties on
   the key are decided by the arrival numbers, explicit ones included. *)
type pq_xop =
  | X_push of int
  | X_arm of int * int
  | X_take
  | X_arm_at of int * int
  | X_cancel of int
  | X_pop

let pq_xop_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> X_push k) (int_bound 3));
        (2, map2 (fun h k -> X_arm (h, k)) (int_bound (pq_handles - 1)) (int_bound 3));
        (2, return X_take);
        (3, map2 (fun h k -> X_arm_at (h, k)) (int_bound (pq_handles - 1)) (int_bound 3));
        (2, map (fun h -> X_cancel h) (int_bound (pq_handles - 1)));
        (3, return X_pop) ])

let pq_xop_print = function
  | X_push k -> Printf.sprintf "push %g" pq_keys.(k)
  | X_arm (h, k) -> Printf.sprintf "arm h%d %g" h pq_keys.(k)
  | X_take -> "take"
  | X_arm_at (h, k) -> Printf.sprintf "arm_at h%d %g" h pq_keys.(k)
  | X_cancel h -> Printf.sprintf "cancel h%d" h
  | X_pop -> "pop"

let prop_pqueue_arrival_model =
  QCheck.Test.make ~name:"explicit arrival numbers = list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pq_xop_print ops))
       QCheck.Gen.(list_size (int_bound 80) pq_xop_gen))
    (fun ops ->
       let q = Pqueue.create () in
       let handles = Array.init pq_handles (fun h -> Pqueue.handle (Handle h)) in
       let model = ref [] and next = ref 0 and pushes = ref 0 in
       (* numbers taken by [X_take] and not yet used, oldest first *)
       let spare = Queue.create () in
       let take () =
         let seq = Pqueue.take_arrival q in
         if seq <> !next then failwith "take_arrival skipped a number";
         incr next;
         seq
       in
       let drop label = model := List.filter (fun (_, _, l) -> l <> label) !model in
       let ok = ref true in
       List.iter
         (fun op ->
            match op with
            | X_push k ->
                Pqueue.push q pq_keys.(k) (Pushed !pushes);
                model := (pq_keys.(k), !next, Pushed !pushes) :: !model;
                incr next;
                incr pushes
            | X_arm (h, k) ->
                Pqueue.arm q handles.(h) pq_keys.(k);
                drop (Handle h);
                model := (pq_keys.(k), !next, Handle h) :: !model;
                incr next
            | X_take -> Queue.push (take ()) spare
            | X_arm_at (h, k) ->
                let seq = if Queue.is_empty spare then take () else Queue.pop spare in
                Pqueue.arm_at q handles.(h) pq_keys.(k) seq;
                drop (Handle h);
                model := (pq_keys.(k), seq, Handle h) :: !model
            | X_cancel h ->
                Pqueue.cancel q handles.(h);
                drop (Handle h)
            | X_pop ->
                let expected =
                  match List.sort compare !model with
                  | [] -> None
                  | ((key, _, label) as top) :: _ ->
                      model := List.filter (fun e -> e <> top) !model;
                      Some (key, label)
                in
                if Pqueue.pop q <> expected then ok := false)
         ops;
       let rest = List.map (fun (key, _, label) -> (key, label)) (List.sort compare !model) in
       !ok && Pqueue.length q = List.length !model && Pqueue.drain q = rest)

(* An arrival number must be one the queue handed out. *)
let test_pqueue_arm_at_rejects_untaken () =
  let q = Pqueue.create () in
  let h = Pqueue.handle () in
  Alcotest.check_raises "a number not yet taken"
    (Invalid_argument "Pqueue.arm_at: arrival number not taken")
    (fun () -> Pqueue.arm_at q h 1.0 0);
  let seq = Pqueue.take_arrival q in
  Pqueue.arm_at q h 1.0 seq;
  Alcotest.check_raises "a negative number"
    (Invalid_argument "Pqueue.arm_at: arrival number not taken")
    (fun () -> Pqueue.arm_at q h 1.0 (-1));
  check_int "the taken number queued it" 1 (Pqueue.length q)

let test_pqueue_handle_rejects_foreign_queue () =
  let q1 = Pqueue.create () and q2 = Pqueue.create () in
  let h = Pqueue.handle () in
  Pqueue.arm q1 h 1.0;
  Alcotest.check_raises "arm in a second queue"
    (Invalid_argument "Pqueue: handle queued in another queue")
    (fun () -> Pqueue.arm q2 h 2.0);
  Alcotest.check_raises "cancel in a second queue"
    (Invalid_argument "Pqueue: handle queued in another queue")
    (fun () -> Pqueue.cancel q2 h);
  check_int "first queue untouched" 1 (Pqueue.length q1)

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)

let () =
  Alcotest.run "qs_net"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "splitmix64 reference vectors" `Quick test_rng_splitmix_vectors;
         Alcotest.test_case "split independence" `Quick test_rng_split_independent;
         Alcotest.test_case "split_n stable order" `Quick test_rng_split_n_stable;
         Alcotest.test_case "split_n sibling independence" `Quick
           test_rng_split_n_independent;
         Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
         Alcotest.test_case "int rejects" `Quick test_rng_int_rejects;
         Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
         Alcotest.test_case "draws allocate nothing" `Quick
           test_rng_draws_allocate_nothing;
         Alcotest.test_case "weighted index" `Quick test_rng_weighted_index;
         Alcotest.test_case "weighted rejects" `Quick test_rng_weighted_rejects;
         Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
         Alcotest.test_case "sample without replacement" `Quick
           test_rng_sample_without_replacement;
         Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
         Alcotest.test_case "geometric" `Quick test_rng_geometric ]
       @ qsuite [ prop_weighted_index_reference ]);
      ("ipv4",
       [ Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
         Alcotest.test_case "rejects malformed" `Quick test_ipv4_rejects;
         Alcotest.test_case "bits" `Quick test_ipv4_bits;
         Alcotest.test_case "arithmetic" `Quick test_ipv4_arith ]
       @ qsuite [ prop_ipv4_string_roundtrip ]);
      ("prefix",
       [ Alcotest.test_case "canonical form" `Quick test_prefix_canonical;
         Alcotest.test_case "membership" `Quick test_prefix_mem;
         Alcotest.test_case "subsumption" `Quick test_prefix_subsumes;
         Alcotest.test_case "split" `Quick test_prefix_split;
         Alcotest.test_case "nth" `Quick test_prefix_nth ]
       @ qsuite [ prop_prefix_split_partitions; prop_prefix_mem_first_last ]);
      ("prefix_trie",
       [ Alcotest.test_case "basics" `Quick test_trie_basics;
         Alcotest.test_case "remove" `Quick test_trie_remove;
         Alcotest.test_case "matches order" `Quick test_trie_matches_order;
         Alcotest.test_case "covered" `Quick test_trie_covered;
         Alcotest.test_case "fold order" `Quick test_trie_fold_order ]
       @ qsuite [ prop_trie_lpm_vs_brute_force; prop_trie_add_find ]);
      ("pqueue",
       [ Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
         Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
         Alcotest.test_case "pop until" `Quick test_pqueue_pop_until;
         Alcotest.test_case "pop releases value" `Quick test_pqueue_pop_releases;
         Alcotest.test_case "grow releases value" `Quick
           test_pqueue_grow_releases;
         Alcotest.test_case "handle rejects a foreign queue" `Quick
           test_pqueue_handle_rejects_foreign_queue;
         Alcotest.test_case "arm_at rejects an untaken number" `Quick
           test_pqueue_arm_at_rejects_untaken ]
       @ qsuite
           [ prop_pqueue_sorts; prop_pqueue_stable_sort;
             prop_pqueue_pop_until_boundary; prop_pqueue_handles_model;
             prop_pqueue_arrival_model ]) ]
