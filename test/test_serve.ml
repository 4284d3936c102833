(* Tests for qs_serve: the sliding window's eviction/resurrection laws
   against the batch accumulator, the ingest buffer's backpressure
   accounting identity, the session-reset tick invariance the streaming
   arm relies on, event JSON goldens, and the headline property — replay
   of a simulated measurement period through the live service reproduces
   the batch cells bit-exactly and the batch C1c alert sequence, at any
   pool width. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let asn = Asn.of_int
let pfx = Prefix.of_string

let sess ?(collector = "rrc00") peer =
  { Update.collector; peer = asn peer }

let ann ~t ~s p path =
  { Update.time = t; session = s;
    kind = Update.Announce (Route.make p (List.map asn path)) }

let wd ~t ~s p = { Update.time = t; session = s; kind = Update.Withdraw p }

let aset l = Asn.Set.of_list (List.map asn l)

(* Field-by-field cell equality with bit-exact floats — the same contract
   Serve.diff_against_batch enforces. *)
let sorted_assoc l = List.sort (fun (a, _) (b, _) -> Asn.compare a b) l

let equal_assoc a b =
  List.equal
    (fun (x, dx) (y, dy) -> Asn.equal x y && Float.equal dx dy)
    (sorted_assoc a) (sorted_assoc b)

let equal_cell (a : Measurement.cell) (b : Measurement.cell) =
  Update.session_equal a.Measurement.key.Measurement.session
    b.Measurement.key.Measurement.session
  && Prefix.equal a.Measurement.key.Measurement.prefix
       b.Measurement.key.Measurement.prefix
  && Option.equal Asn.Set.equal a.Measurement.baseline b.Measurement.baseline
  && a.Measurement.updates = b.Measurement.updates
  && a.Measurement.path_changes = b.Measurement.path_changes
  && equal_assoc a.Measurement.residency b.Measurement.residency
  && equal_assoc a.Measurement.contiguous b.Measurement.contiguous
  && Option.equal Asn.Set.equal a.Measurement.final_set b.Measurement.final_set

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* ---- Window: config validation ---------------------------------------- *)

let test_window_validation () =
  let mk window bucket threshold () =
    Window.create ~config:{ Window.window; bucket; threshold }
      ~watched:(fun _ -> true) ()
  in
  check_bool "valid config accepted" true
    (match mk 600. 60. 120. () with _ -> true);
  check_bool "zero bucket rejected" true (raises_invalid (mk 600. 0. 120.));
  check_bool "bucket must divide window" true
    (raises_invalid (mk 600. 77. 120.));
  check_bool "zero threshold rejected" true (raises_invalid (mk 600. 60. 0.));
  check_bool "threshold beyond window rejected" true
    (raises_invalid (mk 600. 60. 900.));
  check_bool "ring above QS307's bound rejected" true
    (raises_invalid (mk 3600. 1e-9 120.))

(* ---- Window: ring-buffer path-change counting -------------------------- *)

let tiny_window = { Window.window = 600.; bucket = 60.; threshold = 120. }

let test_window_ring () =
  let w = Window.create ~config:tiny_window ~watched:(fun _ -> true) () in
  let s1 = sess 64512 and p = pfx "10.0.0.0/8" in
  let key = { Measurement.session = s1; prefix = p } in
  Window.set_baseline w key (aset [ 1; 2; 3 ]);
  let ev1 = Window.apply w (ann ~t:10. ~s:s1 p [ 9; 2; 3 ]) in
  let ev2 = Window.apply w (ann ~t:70. ~s:s1 p [ 8; 2; 3 ]) in
  let changes evs =
    List.filter (function Event.Path_change _ -> true | _ -> false) evs
  in
  check_int "first change event" 1 (List.length (changes ev1));
  check_int "second change event" 1 (List.length (changes ev2));
  (match changes ev2 with
   | [ Event.Path_change { total; in_window; _ } ] ->
       check_int "total counts both" 2 total;
       check_int "window counts both" 2 in_window
   | _ -> Alcotest.fail "expected one path-change event");
  check_int "in_window live" 2 (Window.in_window w key);
  (* Roll the ring a full window past the changes: the rolling sum decays
     to zero without touching the key. *)
  ignore (Window.advance w 800. : Event.t list);
  check_int "in_window decays" 0 (Window.in_window w key);
  (* A key whose path has not changed has no ring yet and reads 0; its
     first change, long after the key appeared, counts from there. *)
  let late = { Measurement.session = s1; prefix = pfx "11.0.0.0/8" } in
  Window.set_baseline w late (aset [ 1; 2 ]);
  check_int "ring-less key" 0 (Window.in_window w late);
  ignore (Window.apply w (ann ~t:900. ~s:s1 late.Measurement.prefix [ 1; 2 ])
          : Event.t list);
  check_int "a same-path re-announce counts nothing" 0
    (Window.in_window w late);
  ignore (Window.apply w (ann ~t:5000. ~s:s1 late.Measurement.prefix [ 7; 2 ])
          : Event.t list);
  check_int "first change counted" 1 (Window.in_window w late);
  ignore (Window.advance w 5700. : Event.t list);
  check_int "and decays" 0 (Window.in_window w late)

(* ---- Window: eviction and resurrection vs the batch accumulator -------- *)

let test_window_evict_resurrect () =
  let w = Window.create ~config:tiny_window ~watched:(fun _ -> true) () in
  let s1 = sess 64512 and p = pfx "10.0.0.0/8" in
  let key = { Measurement.session = s1; prefix = p } in
  let feed =
    [ ann ~t:0. ~s:s1 p [ 1; 2 ];
      wd ~t:100. ~s:s1 p;
      (* withdrawn and silent past t = 100 + window: evicted at 700 *)
      ann ~t:900. ~s:s1 p [ 1; 2 ] ]
  in
  let horizon = 1000. in
  let events = ref [] in
  List.iter (fun u -> events := !events @ Window.apply w u) feed;
  events := !events @ Window.drain w ~horizon;
  let evicted =
    List.filter (function Event.Evicted _ -> true | _ -> false) !events
  in
  check_int "one eviction event" 1 (List.length evicted);
  let st = Window.stats w in
  check_int "eviction counted" 1 st.Window.evictions;
  check_int "resurrection counted" 1 st.Window.resurrections;
  (* The ghost handoff must be invisible in the final accounting: the
     cell equals a batch accumulator fed the same sequence. *)
  let acc = Measurement.Acc.create () in
  List.iter (fun u -> ignore (Measurement.Acc.consume acc u)) feed;
  Measurement.Acc.seal acc horizon;
  (match (Window.cells w, Measurement.Acc.cell key acc) with
   | [ got ], Some want ->
       check_bool "cell matches batch across eviction" true
         (equal_cell got want)
   | cells, _ ->
       Alcotest.failf "expected exactly one cell, got %d" (List.length cells))

(* ---- Window: extra-AS threshold is contiguous, not cumulative ----------- *)

let test_window_contiguous_threshold () =
  let w = Window.create ~config:tiny_window ~watched:(fun _ -> true) () in
  let s1 = sess 64512 in
  let p1 = pfx "10.0.0.0/8" and p2 = pfx "172.16.0.0/12" in
  let k1 = { Measurement.session = s1; prefix = p1 } in
  let k2 = { Measurement.session = s1; prefix = p2 } in
  Window.set_baseline w k1 (aset [ 1; 2 ]);
  Window.set_baseline w k2 (aset [ 1; 2 ]);
  (* p1: AS3 holds a single contiguous 150 s run crossing the 60 s bucket
     boundary — past the 120 s threshold, must fire exactly once. *)
  (* p2: AS4 totals 200 s on the path but in two disjoint 100 s stints —
     cumulative residency qualifies, contiguous does not: silent. *)
  let feed =
    [ ann ~t:0. ~s:s1 p1 [ 3; 1; 2 ];
      ann ~t:0. ~s:s1 p2 [ 4; 1; 2 ];
      ann ~t:100. ~s:s1 p2 [ 1; 2 ];
      ann ~t:150. ~s:s1 p1 [ 1; 2 ];
      ann ~t:200. ~s:s1 p2 [ 4; 1; 2 ];
      ann ~t:300. ~s:s1 p2 [ 1; 2 ] ]
  in
  let horizon = 1000. in
  let events =
    List.concat_map (fun u -> Window.apply w u) feed
    @ Window.drain w ~horizon
  in
  let extra =
    List.filter_map
      (function Event.Extra_as { key; asn; run; _ } -> Some (key, asn, run)
              | _ -> None)
      events
  in
  (match extra with
   | [ (key, a, run) ] ->
       check_bool "fired for p1" true
         (Prefix.equal key.Measurement.prefix p1);
       check_int "fired for AS3" 3 (Asn.to_int a);
       check_bool "run reaches threshold" true (run >= 120.)
   | l -> Alcotest.failf "expected exactly one extra-AS event, got %d"
            (List.length l));
  (* And the emission set is exactly the batch extra_ases rule. *)
  List.iter
    (fun (c : Measurement.cell) ->
       let want = Measurement.extra_ases ~threshold:120. c in
       let fired =
         List.filter_map
           (function
             | Event.Extra_as { key; asn; _ }
               when Prefix.equal key.Measurement.prefix
                      c.Measurement.key.Measurement.prefix -> Some asn
             | _ -> None)
           events
         |> Asn.Set.of_list
       in
       check_bool "events = batch extra_ases" true (Asn.Set.equal want fired))
    (Window.cells w)

(* ---- Window law: windowed cells = batch accumulator, any sequence ------ *)

(* Random per-key update sequences with gaps well past the window, so
   evictions, ghost parking and resurrections all trigger — the drained
   cells must still equal a batch accumulator fed the same stream. *)
let prop_window_equals_batch =
  QCheck.Test.make ~name:"window cells = batch accumulator (random streams)"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
       let config = { Window.window = 120.; bucket = 60.; threshold = 60. } in
       let st = Random.State.make [| seed |] in
       let sessions = [| sess 64512; sess ~collector:"rrc01" 64513 |] in
       let prefixes =
         [| pfx "10.0.0.0/8"; pfx "172.16.0.0/12"; pfx "192.168.0.0/16" |]
       in
       let paths = [| [ 1; 2 ]; [ 3; 1; 2 ]; [ 4; 2 ]; [ 5; 4; 2 ] |] in
       let t = ref 0. in
       let feed =
         List.init 60 (fun _ ->
             t := !t +. float_of_int (Random.State.int st 51);
             let s = sessions.(Random.State.int st 2) in
             let p = prefixes.(Random.State.int st 3) in
             if Random.State.int st 5 = 0 then wd ~t:!t ~s p
             else ann ~t:!t ~s p paths.(Random.State.int st 4))
       in
       let horizon = !t +. 1. in
       let w = Window.create ~config ~watched:(fun _ -> true) () in
       let accs = ref [] in
       let get_acc key =
         match
           List.find_opt
             (fun (k, _) ->
                Update.session_equal k.Measurement.session
                  key.Measurement.session
                && Prefix.equal k.Measurement.prefix key.Measurement.prefix)
             !accs
         with
         | Some (_, a) -> a
         | None ->
             let a = Measurement.Acc.create () in
             accs := (key, a) :: !accs;
             a
       in
       (* Baseline one key in both arms so the baseline path is covered. *)
       let k0 = { Measurement.session = sessions.(0); prefix = prefixes.(0) } in
       Window.set_baseline w k0 (aset [ 1; 2 ]);
       Measurement.Acc.set_baseline (get_acc k0) (aset [ 1; 2 ]);
       List.iter
         (fun u ->
            ignore (Window.apply w u : Event.t list);
            let key =
              { Measurement.session = u.Update.session;
                prefix = Update.prefix u }
            in
            ignore (Measurement.Acc.consume (get_acc key) u))
         feed;
       ignore (Window.drain w ~horizon : Event.t list);
       let batch =
         List.filter_map
           (fun (k, a) ->
              Measurement.Acc.seal a horizon;
              Measurement.Acc.cell k a)
           !accs
         |> List.sort (fun (a : Measurement.cell) b ->
             Window.compare_key a.Measurement.key b.Measurement.key)
       in
       let got = Window.cells w in
       List.length got = List.length batch
       && List.for_all2 equal_cell got batch)

(* ---- Ingest: validation, drops, ordering ------------------------------- *)

let test_ingest_validation () =
  check_bool "zero capacity rejected" true
    (raises_invalid (fun () ->
         Ingest.create ~config:{ Ingest.capacity = 0; slack = 10. } ()));
  check_bool "negative slack rejected" true
    (raises_invalid (fun () ->
         Ingest.create ~config:{ Ingest.capacity = 8; slack = -1. } ()))

let test_ingest_late_drop () =
  let i = Ingest.create ~config:{ Ingest.capacity = 64; slack = 120. } () in
  let s = sess 64512 and p = pfx "10.0.0.0/8" in
  check_bool "first accepted" true
    (Ingest.push i (ann ~t:1000. ~s p [ 1 ]) = `Accepted);
  (* watermark = 1000 - 120 = 880; 100 is hopeless *)
  check_bool "stale dropped late" true
    (Ingest.push i (ann ~t:100. ~s p [ 1 ]) = `Dropped_late);
  check_bool "within slack accepted" true
    (Ingest.push i (ann ~t:900. ~s p [ 2 ]) = `Accepted);
  let st = Ingest.stats i in
  check_int "ingested counts every push" 3 st.Ingest.ingested;
  check_int "late counted" 1 st.Ingest.dropped_late

let test_ingest_overflow () =
  let i = Ingest.create ~config:{ Ingest.capacity = 2; slack = 1e9 } () in
  let s = sess 64512 and p = pfx "10.0.0.0/8" in
  check_bool "fits" true (Ingest.push i (ann ~t:1. ~s p [ 1 ]) = `Accepted);
  check_bool "fits" true (Ingest.push i (ann ~t:2. ~s p [ 1 ]) = `Accepted);
  check_bool "third overflows" true
    (Ingest.push i (ann ~t:3. ~s p [ 1 ]) = `Dropped_overflow);
  let st = Ingest.stats i in
  check_int "overflow counted" 1 st.Ingest.dropped_overflow;
  check_int "still queued" 2 st.Ingest.queued

let test_ingest_release_order () =
  let i = Ingest.create ~config:{ Ingest.capacity = 64; slack = 100. } () in
  let s = sess 64512 and p = pfx "10.0.0.0/8" in
  (* Arrival order 50, 10, 30: all within slack once 200 raises the
     watermark, released in time order. *)
  List.iter
    (fun t -> ignore (Ingest.push i (ann ~t ~s p [ 1 ])))
    [ 50.; 10.; 30. ];
  check_int "nothing due yet" 0 (List.length (Ingest.ready i));
  ignore (Ingest.push i (ann ~t:200. ~s p [ 1 ]));
  let released = Ingest.ready i in
  Alcotest.(check (list (float 0.)))
    "time-ordered release" [ 10.; 30.; 50. ]
    (List.map (fun u -> u.Update.time) released);
  let rest = Ingest.flush i in
  Alcotest.(check (list (float 0.)))
    "flush releases the tail" [ 200. ]
    (List.map (fun u -> u.Update.time) rest);
  check_int "queue empty" 0 (Ingest.queued i)

(* The backpressure contract: nothing ever disappears silently. The
   accounting identity holds at every point of the stream, for any mix of
   late arrivals and overflow. *)
let prop_ingest_accounting =
  QCheck.Test.make ~name:"ingest accounting identity (random feeds)"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
       let st = Random.State.make [| seed |] in
       let i =
         Ingest.create ~config:{ Ingest.capacity = 16; slack = 50. } ()
       in
       let s = sess 64512 and p = pfx "10.0.0.0/8" in
       let base = ref 0. in
       let ok = ref true in
       let identity () =
         let s = Ingest.stats i in
         s.Ingest.ingested
         = s.Ingest.released + s.Ingest.dropped_late
           + s.Ingest.dropped_overflow + s.Ingest.queued
       in
       for n = 1 to 120 do
         base := !base +. float_of_int (Random.State.int st 31);
         let t = !base -. float_of_int (Random.State.int st 201) in
         ignore (Ingest.push i (ann ~t ~s p [ 1 ]) : Ingest.push_result);
         if n mod 5 = 0 then ignore (Ingest.ready i : Update.t list);
         ok := !ok && identity ()
       done;
       ignore (Ingest.flush i : Update.t list);
       let s = Ingest.stats i in
       !ok && identity () && s.Ingest.queued = 0 && s.Ingest.ingested = 120)

(* ---- Ingest: chunked MRT decode --------------------------------------- *)

let test_mrt_chunked_decode () =
  let s1 = sess 64512 and s2 = sess 64513 in
  let p1 = pfx "10.0.0.0/8" and p2 = pfx "172.16.0.0/12" in
  let updates =
    [ ann ~t:1. ~s:s1 p1 [ 1; 2 ];
      ann ~t:2. ~s:s2 p2 [ 3; 2 ];
      wd ~t:3. ~s:s1 p1;
      ann ~t:4. ~s:s1 p2 [ 4; 5; 2 ];
      wd ~t:5. ~s:s2 p2;
      ann ~t:6. ~s:s2 p1 [ 1; 2; 2; 7 ] ]
  in
  let local_ip = Ipv4.of_string "193.0.0.1" in
  let peer_ip = Ipv4.of_string "193.0.0.2" in
  let raw =
    Mrt.encode
      (List.map
         (Mrt.record_of_update ~local_as:(asn 12654) ~local_ip ~peer_ip)
         updates)
  in
  let reference =
    Mrt.decode raw
    |> List.concat_map (Mrt.update_of_record ~collector:"rrc00")
  in
  check_bool "reference decode is lossless" true (reference <> []);
  Pool.with_pool ~jobs:3 (fun exec ->
      List.iter
        (fun chunk ->
           let got = Ingest.decode_mrt ~chunk ~collector:"rrc00" ~exec raw in
           check_bool
             (Printf.sprintf "chunk=%d matches whole-stream decode" chunk)
             true (got = reference))
        [ 1; 3; 512 ])

(* ---- Session_reset.advance: tick invariance ---------------------------- *)

(* Every push ticks the reset filter's clock, so a quiet session cannot
   hold a straggler. An explicit [advance] before each push (qsbench's
   call pattern) must then find nothing left to do: the emitted stream,
   order included, and every pass/drop decision are those of push alone
   ([Measurement.feed]'s pattern). *)
let test_reset_advance_invariance () =
  let config =
    { Session_reset.window = 60.; min_prefixes = 5; table_fraction = 0.5;
      quiet_gap = 30. }
  in
  let sa = sess 64512 and sb = sess ~collector:"rrc01" 64513 in
  let prefixes =
    Array.init 8 (fun i -> pfx (Printf.sprintf "10.%d.0.0/16" i))
  in
  let feed =
    (* sA chats steadily; sB sends one straggler then a table-transfer
       burst (8 prefixes >= max(min_prefixes, fraction * table)) and goes
       quiet — sA's pushes must release sB's straggler, and both call
       patterns must drop exactly the same burst. *)
    [ ann ~t:0. ~s:sa prefixes.(0) [ 1; 2 ];
      ann ~t:50. ~s:sa prefixes.(1) [ 1; 2 ];
      ann ~t:100. ~s:sb prefixes.(0) [ 3; 2 ] ]
    @ List.init 8 (fun i ->
        ann ~t:(200. +. float_of_int i) ~s:sb prefixes.(i) [ 3; 2 ])
    @ [ ann ~t:300. ~s:sa prefixes.(2) [ 1; 2 ];
        ann ~t:400. ~s:sa prefixes.(3) [ 1; 2 ];
        ann ~t:500. ~s:sa prefixes.(4) [ 1; 2 ] ]
  in
  let run ~advance =
    let out = ref [] in
    let f = Session_reset.create ~config ~emit:(fun u -> out := u :: !out) () in
    Session_reset.preload_table f sa 10;
    Session_reset.preload_table f sb 10;
    List.iter
      (fun u ->
         if advance then Session_reset.advance f u.Update.time;
         Session_reset.push f u)
      feed;
    let before_flush = List.length !out in
    Session_reset.flush f;
    (List.rev !out, before_flush, Session_reset.stats f)
  in
  let push_out, push_early, push_stats = run ~advance:false in
  let tick_out, tick_early, tick_stats = run ~advance:true in
  check_bool "identical emitted streams" true
    (List.equal ( == ) push_out tick_out);
  check_int "same emitted before flush" push_early tick_early;
  check_int "same passed" push_stats.Session_reset.passed
    tick_stats.Session_reset.passed;
  check_int "same dropped" push_stats.Session_reset.dropped
    tick_stats.Session_reset.dropped;
  check_bool "a burst was actually dropped" true
    (push_stats.Session_reset.dropped >= 8);
  check_bool "the straggler left before flush" true
    (List.exists (fun u -> u.Update.time = 100.)
       (List.filteri (fun i _ -> i < push_early) push_out));
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Update.time <= b.Update.time && sorted rest
    | _ -> true
  in
  check_bool "emission is globally time-ordered" true (sorted push_out)

(* ---- Event JSON goldens ------------------------------------------------ *)

(* These pin the wire format sinks and the CI smoke stage parse. Bump them
   deliberately when the schema changes. *)
let golden_key =
  { Measurement.session = sess 64512; prefix = pfx "10.0.0.0/8" }

let test_event_json_goldens () =
  check_string "path_change"
    "{\"event\":\"path_change\",\"time\":12.500000,\"collector\":\"rrc00\",\
     \"peer\":64512,\"prefix\":\"10.0.0.0/8\",\"total\":3,\"in_window\":2}"
    (Event.to_json
       (Event.Path_change { key = golden_key; time = 12.5; total = 3;
                            in_window = 2 }));
  check_string "extra_as"
    "{\"event\":\"extra_as\",\"time\":420.000000,\"collector\":\"rrc00\",\
     \"peer\":64512,\"prefix\":\"10.0.0.0/8\",\"asn\":65001,\
     \"run\":300.000000}"
    (Event.to_json
       (Event.Extra_as { key = golden_key; time = 420.; asn = asn 65001;
                         run = 300. }));
  check_string "evicted, unmeasured"
    "{\"event\":\"evicted\",\"time\":700.000000,\"collector\":\"rrc00\",\
     \"peer\":64512,\"prefix\":\"10.0.0.0/8\",\"measured\":false}"
    (Event.to_json (Event.Evicted { key = golden_key; time = 700.;
                                    cell = None }));
  let cell =
    { Measurement.key = golden_key; baseline = None; updates = 4;
      path_changes = 2; residency = []; contiguous = []; final_set = None }
  in
  check_string "evicted, measured"
    "{\"event\":\"evicted\",\"time\":700.000000,\"collector\":\"rrc00\",\
     \"peer\":64512,\"prefix\":\"10.0.0.0/8\",\"measured\":true,\
     \"updates\":4,\"path_changes\":2}"
    (Event.to_json (Event.Evicted { key = golden_key; time = 700.;
                                    cell = Some cell }));
  let alert =
    { Alert.detector = "c1c"; time = 7200.; session = sess 64512;
      prefix = pfx "10.0.0.0/8"; kind = "moas";
      summary = "origin \"moved\"";
      evidence = [ ann ~t:7100. ~s:(sess 64512) (pfx "10.0.0.0/8") [ 1 ] ] }
  in
  check_string "alert (with escaping)"
    "{\"event\":\"alert\",\"time\":7200.000000,\"detector\":\"c1c\",\
     \"kind\":\"moas\",\"collector\":\"rrc00\",\"peer\":64512,\
     \"prefix\":\"10.0.0.0/8\",\"summary\":\"origin \\\"moved\\\"\",\
     \"evidence\":1}"
    (Event.to_json (Event.Alert alert));
  check_string "violation"
    "{\"event\":\"violation\",\"invariant\":\"ordering\",\
     \"message\":\"time went backwards\"}"
    (Event.to_json
       (Event.Violation { invariant = "ordering";
                          message = "time went backwards" }))

(* ---- Serve: alerting end-to-end on a synthetic feed -------------------- *)

let serve_config =
  { Serve.Config.default with
    Serve.Config.window = 600.; bucket = 60.; threshold = 120.; slack = 50.;
    capacity = 4096; chunk = 4; learning_period = 100. }

let test_serve_moas_alert () =
  (* Frozen clock: only wall-time metrics consult it, so the emitted
     stream is reproducible under it by construction. *)
  Clock.with_source (fun () -> 0.) @@ fun () ->
  Pool.with_pool ~jobs:2 @@ fun exec ->
  let sink, captured = Sink.memory () in
  let t = Serve.create ~config:serve_config ~sinks:[ sink ] ~exec () in
  let s1 = sess 64512 and p = pfx "10.0.0.0/8" in
  (* Learn origin AS65001 inside the 100 s learning period, then move the
     origin: a MOAS alarm, the paper's C1c control-plane signature. Six
     updates on the prefix, so the evidence window has rolled. *)
  List.iter (Serve.offer t)
    [ ann ~t:0. ~s:s1 p [ 7; 65001 ];
      ann ~t:10. ~s:s1 p [ 8; 65001 ];
      ann ~t:20. ~s:s1 p [ 7; 65001 ];
      ann ~t:30. ~s:s1 p [ 8; 65001 ];
      ann ~t:50. ~s:s1 p [ 7; 65001 ];
      ann ~t:300. ~s:s1 p [ 9; 65002 ] ];
  let violations = Serve.drain t ~horizon:600. in
  check_bool "no conformance violations" true (violations = []);
  (match Serve.alerts t with
   | [ a ] ->
       check_string "detector" "c1c" a.Alert.detector;
       check_string "kind" "moas" a.Alert.kind;
       check_bool "right prefix" true (Prefix.equal a.Alert.prefix p);
       (* The prefix's last four updates, newest first, the alarming
          one included. *)
       Alcotest.(check (list (float 0.))) "carries evidence"
         [ 300.; 50.; 30.; 20. ]
         (List.map (fun (u : Update.t) -> u.Update.time) a.Alert.evidence)
   | l -> Alcotest.failf "expected one alert, got %d" (List.length l));
  let evs = captured () in
  check_bool "sink saw the alert" true
    (List.exists (function Event.Alert _ -> true | _ -> false) evs);
  check_bool "events were emitted" true (Serve.events_emitted t > 0);
  (* Losslessness of the feed we just pushed. *)
  let st = Ingest.stats (Serve.ingest t) in
  check_int "all ingested" 6 st.Ingest.ingested;
  check_int "all released" 6 st.Ingest.released

let test_serve_guards () =
  Pool.with_pool ~jobs:1 @@ fun exec ->
  check_bool "invalid config rejected at create" true
    (raises_invalid (fun () ->
         Serve.create
           ~config:{ serve_config with Serve.Config.threshold = 0. }
           ~exec ()));
  let t = Serve.create ~config:serve_config ~exec () in
  ignore (Serve.drain t ~horizon:10. : Conformance.violation list);
  check_bool "drain is single-shot" true
    (raises_invalid (fun () -> Serve.drain t ~horizon:20.))

(* ---- Replay equivalence: streaming = batch ----------------------------- *)

let replay_scenario = lazy (Scenario.build ~seed:9 Scenario.Small)

let replay_dynamics =
  { Dynamics.short_config with
    Dynamics.duration = 6. *. 3600.;
    base_churn_rate = 0.3 }

(* A sub-duration window forces evictions during the replay; the short
   learning period lets the injected second-half hijacks alarm. *)
let replay_config =
  { Serve.Config.default with
    Serve.Config.window = 1800.;
    learning_period = 3600. }

let replay_attacks s =
  snd
    (Countermeasures.inject_hijacks
       ~rng:(Scenario.rng_for s "serve") ~n_attacks:3
       ~duration:replay_dynamics.Dynamics.duration s)

(* Every feed input the replay forwards to [Measurement.feed]: the filter
   on and off, a reset-heavy month, and a non-default filter config. *)
let replay_variants =
  let resets = { replay_dynamics with Dynamics.resets_per_session = 4. } in
  let filter =
    { Session_reset.window = 300.; min_prefixes = 20; table_fraction = 0.3;
      quiet_gap = 90. }
  in
  [ ("default", replay_dynamics, None, false);
    ("unfiltered", replay_dynamics, None, true);
    ("resets", resets, None, false);
    ("resets unfiltered", resets, None, true);
    ("filter config", replay_dynamics, Some filter, false);
    ("filter config, resets", resets, Some filter, false) ]

let test_replay_matches_batch () =
  let s = Lazy.force replay_scenario in
  let extra = replay_attacks s in
  check_bool "attacks were injected" true (extra <> []);
  Pool.with_pool ~jobs:2 @@ fun exec ->
  List.iter
    (fun (name, dynamics, filter, no_filter) ->
       let r =
         Serve.replay ~dynamics ?filter ~no_filter ~extra_updates:extra
           ~config:replay_config ~exec s
       in
       let m, batch =
         Serve.batch_alerts ~dynamics ?filter ~no_filter ~extra_updates:extra
           ~learning_period:replay_config.Serve.Config.learning_period s
       in
       let label what = name ^ ": " ^ what in
       Alcotest.(check (list string)) (label "streaming = batch, exactly") []
         (Serve.diff_against_batch r m batch);
       check_bool (label "same filter stats") true
         (r.Serve.r_filter = m.Measurement.filter_stats);
       check_bool (label "filter on iff asked") (not no_filter)
         (r.Serve.r_filter <> None);
       check_int (label "no late drops") 0 r.Serve.r_ingest.Ingest.dropped_late;
       check_int (label "no overflow") 0
         r.Serve.r_ingest.Ingest.dropped_overflow;
       check_bool (label "memory bound exercised (evictions observed)") true
         (r.Serve.r_window.Window.evictions > 0);
       check_bool (label "hijacks raised alerts") true (r.Serve.r_alerts <> []);
       check_bool (label "no conformance violations") true
         (r.Serve.r_violations = []);
       Option.iter
         (fun (f : Session_reset.stats) ->
            check_bool (label "filter dropped reset artifacts") true
              (f.Session_reset.dropped > 0))
         r.Serve.r_filter)
    replay_variants

let test_replay_jobs_identity () =
  let s = Lazy.force replay_scenario in
  let extra = replay_attacks s in
  let run jobs sinks =
    Pool.with_pool ~jobs @@ fun exec ->
    Serve.replay ~dynamics:replay_dynamics ~extra_updates:extra
      ~config:replay_config ~sinks ~exec s
  in
  (* A line-reading sink gets the stream the service renders over the
     pool; a memory sink gets the events themselves. *)
  let text () =
    let lines = ref [] in
    ( Sink.make ~name:"text" (fun batch ->
          Array.iter (fun (_, line) -> lines := line :: !lines) batch),
      fun () -> List.rev !lines )
  in
  let run_text jobs =
    let sink, lines = text () and mem, captured = Sink.memory () in
    let r = run jobs [ sink; mem ] in
    (r, lines (), List.map Event.to_json (captured ()))
  in
  let r1, ev1, mem1 = run_text 1 in
  let r4, ev4, mem4 = run_text 4 in
  Alcotest.(check (list string)) "event stream byte-identical" ev1 ev4;
  Alcotest.(check (list string)) "rendered lines = the events' JSON" mem4 ev4;
  Alcotest.(check (list string)) "jobs 1: rendered lines = the events' JSON"
    mem1 ev1;
  let mem_only, captured = Sink.memory () in
  let r_mem = run 1 [ mem_only ] in
  Alcotest.(check (list string)) "memory sink alone sees the same events" ev1
    (List.map Event.to_json (captured ()));
  List.iter
    (fun (name, r) ->
       check_int (name ^ ": same event count") r1.Serve.r_events
         r.Serve.r_events;
       check_bool (name ^ ": same alerts") true
         (List.equal Alert.equal r1.Serve.r_alerts r.Serve.r_alerts);
       check_bool (name ^ ": same window stats") true
         (r1.Serve.r_window = r.Serve.r_window);
       check_int (name ^ ": same released count")
         r1.Serve.r_ingest.Ingest.released r.Serve.r_ingest.Ingest.released)
    [ ("jobs 4", r4); ("memory", r_mem); ("no sink", run 1 []);
      ("null sink", run 1 [ Sink.null ]) ];
  check_int "one line per event" r1.Serve.r_events (List.length ev1)

(* Regression: under trace-shaped session churn, replay must draw the
   churn trace from the scenario's "trace-churn" stream exactly as
   [Measurement.run] does. Replay used to fall back to a split of the
   measurement stream and fed the service a different update sequence. *)
let test_replay_trace_churn_matches_batch () =
  let s = Lazy.force replay_scenario in
  let dynamics =
    { replay_dynamics with Dynamics.session_churn = Some Churn.pareto_day }
  in
  Pool.with_pool ~jobs:1 @@ fun exec ->
  let r = Serve.replay ~dynamics ~config:replay_config ~exec s in
  let m, batch =
    Serve.batch_alerts ~dynamics
      ~learning_period:replay_config.Serve.Config.learning_period s
  in
  check_bool "trace churn fired" true (r.Serve.r_dyn.Dynamics.churn_events > 0);
  Alcotest.(check (list string)) "streaming = batch under trace churn" []
    (Serve.diff_against_batch r m batch)

(* ---- seeded fuzz of the serve config (QS307) ---------------------------- *)

let fuzz_floats =
  [ nan; -.nan; infinity; neg_infinity; 0.; -0.; -1.; 1e-300; 4.9e-324;
    Float.epsilon; 0.5; 1.; 60.; 300.; 3600.; 86_400.; 1e12; max_float;
    -.max_float ]

let fuzz_ints = [ min_int; -1; 0; 1; 2; 512; 65_536; max_int ]

(* Half the draws are edge values; the rest are structured so that a fair
   share of configs pass QS307 and reach Serve.create. *)
let fuzz_config rng announced =
  let f () =
    if Rng.bool rng then Rng.pick_list rng fuzz_floats
    else Rng.float rng 7_200.
  in
  let bucket =
    if Rng.bool rng then f () else Rng.pick_list rng [ 0.5; 1.; 60. ]
  in
  let window =
    if Rng.bool rng then f ()
    else bucket *. float_of_int (Rng.pick_list rng [ 1; 2; 60; 86_400; 86_401 ])
  in
  let threshold = if Rng.bool rng then f () else Rng.float rng window in
  let count () =
    if Rng.bool rng then Rng.pick_list rng fuzz_ints else 1 + Rng.int rng 64
  in
  let capacity = count () in
  let chunk = count () in
  let prefix () =
    if Rng.bool rng then Rng.pick rng announced
    else
      Prefix.make
        (Ipv4.of_int_trunc (Rng.int rng 0x1_0000_0000))
        (Rng.int rng 33)
  in
  { Serve.Config.window; bucket; threshold; slack = f (); capacity; chunk;
    learning_period = f ();
    monitored = List.init (Rng.int rng 3) (fun _ -> (prefix (), prefix ())) }

(* The config path behind QS307 is total: Serve_lint.check answers every
   config with diagnostics or none, with or without a scenario, and never
   raises; Serve.create accepts exactly the configs the rule passes and
   rejects the rest with Invalid_argument; an accepted service takes a
   short feed and drains. *)
let test_fuzz_serve_config () =
  let s = Lazy.force replay_scenario in
  let announced =
    Array.of_list (List.map fst (Addressing.announced s.Scenario.addressing))
  in
  let rng = Rng.of_int 307 in
  let passed = ref 0 and rejected = ref 0 in
  let s1 = sess 64512 and p = pfx "10.0.0.0/8" in
  let feed =
    [ ann ~t:1. ~s:s1 p [ 64512; 2; 3 ]; ann ~t:90. ~s:s1 p [ 64512; 9; 3 ];
      wd ~t:200. ~s:s1 p ]
  in
  Pool.with_pool ~jobs:1 @@ fun exec ->
  for i = 1 to 2_000 do
    let c = fuzz_config rng announced in
    let fail what e =
      Alcotest.failf "draw %d: %s raised %s (window %g bucket %g threshold %g \
                      slack %g capacity %d chunk %d)"
        i what (Printexc.to_string e) c.Serve.Config.window
        c.Serve.Config.bucket c.Serve.Config.threshold c.Serve.Config.slack
        c.Serve.Config.capacity c.Serve.Config.chunk
    in
    let view = Serve.Config.view c in
    (match Serve_lint.check ~scenario:s view with
     | _ -> ()
     | exception e -> fail "Serve_lint.check ~scenario" e);
    match Serve_lint.check view with
    | exception e -> fail "Serve_lint.check" e
    | [] -> (
        incr passed;
        match Serve.create ~config:c ~exec () with
        | t ->
            List.iter (Serve.offer t) feed;
            ignore (Serve.drain t ~horizon:400. : Conformance.violation list)
        | exception e -> fail "Serve.create on a config QS307 passes" e)
    | _ :: _ -> (
        incr rejected;
        match Serve.create ~config:c ~exec () with
        | _ ->
            Alcotest.failf "draw %d: Serve.create took a config QS307 rejects"
              i
        | exception Invalid_argument _ -> ()
        | exception e -> fail "Serve.create on a config QS307 rejects" e)
  done;
  check_bool "some configs pass QS307" true (!passed > 0);
  check_bool "some configs fail QS307" true (!rejected > 0)

(* ----------------------------------------------------------------------- *)

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_window_equals_batch; prop_ingest_accounting ]

let () =
  Alcotest.run "qs_serve"
    [ ("window",
       [ Alcotest.test_case "config validation" `Quick test_window_validation;
         Alcotest.test_case "fuzz: serve config is total" `Quick
           test_fuzz_serve_config;
         Alcotest.test_case "path-change ring" `Quick test_window_ring;
         Alcotest.test_case "evict + resurrect = batch" `Quick
           test_window_evict_resurrect;
         Alcotest.test_case "contiguous threshold" `Quick
           test_window_contiguous_threshold ]);
      ("window laws", qsuite);
      ("ingest",
       [ Alcotest.test_case "validation" `Quick test_ingest_validation;
         Alcotest.test_case "late drop" `Quick test_ingest_late_drop;
         Alcotest.test_case "overflow" `Quick test_ingest_overflow;
         Alcotest.test_case "release order" `Quick test_ingest_release_order;
         Alcotest.test_case "chunked MRT decode" `Quick
           test_mrt_chunked_decode ]);
      ("session-reset ticks",
       [ Alcotest.test_case "advance invariance" `Quick
           test_reset_advance_invariance ]);
      ("events",
       [ Alcotest.test_case "JSON goldens" `Quick test_event_json_goldens ]);
      ("serve",
       [ Alcotest.test_case "moas alert end-to-end" `Quick
           test_serve_moas_alert;
         Alcotest.test_case "guards" `Quick test_serve_guards ]);
      ("replay",
       [ Alcotest.test_case "streaming = batch" `Slow
           test_replay_matches_batch;
         Alcotest.test_case "jobs byte-identity" `Slow
           test_replay_jobs_identity;
         Alcotest.test_case "trace churn = batch" `Slow
           test_replay_trace_churn_matches_batch ]) ]
