type key = { session : Update.session_id; prefix : Prefix.t }

type cell = {
  key : key;
  baseline : Asn.Set.t option;
  updates : int;
  path_changes : int;
  residency : (Asn.t * float) list;
  contiguous : (Asn.t * float) list;
  final_set : Asn.Set.t option;
}

module Key_table = Hashtbl.Make (struct
    type t = key

    let equal a b =
      Update.session_equal a.session b.session && Prefix.equal a.prefix b.prefix

    let hash k = (Hashtbl.hash k.session.Update.collector * 31)
                 + (Asn.hash k.session.Update.peer * 7)
                 + Prefix.hash k.prefix
  end)

(* Sealing a cell that holds only its baseline at [h] credits each
   baseline AS [h -. 0.] and closes its run at that length, both only when
   positive — and [h > 0.] is that very test, -0. included. *)
let sealed_runs base h =
  if h > 0. then Asn.Set.fold (fun a l -> (a, h) :: l) base [] else []

module Path_table = Hashtbl.Make (struct
    type t = Asn.t list

    let equal = List.equal Asn.equal
    let hash (l : t) = Hashtbl.hash l
  end)

(* Routes with one AS path share one set: a session reaches all of an
   origin's prefixes over the same path. *)
let iter_baselines (initial : Dynamics.initial) f =
  let sets = Path_table.create 4096 in
  Update.Session_map.iter
    (fun session table0 ->
       Prefix.Map.iter
         (fun prefix route ->
            let path = route.Route.as_path in
            let set =
              match Path_table.find sets path with
              | set -> set
              | exception Not_found ->
                  let set = Route.as_set route in
                  Path_table.add sets path set;
                  set
            in
            f { session; prefix } set)
         table0)
    initial

(* The sealed cells of one horizon, slot [i] for time-0 key [i]: [unbuilt]
   until a run first emits that key untouched. Runs on several domains may
   fill one slot at once; each writes an equal cell. *)
type sealed = { horizon : float; cells : cell array }

type t = {
  source : Dynamics.initial;
  keys : int Key_table.t;         (* key -> index; never written after [build] *)
  baselines : Asn.Set.t array;    (* by index *)
  visibility : int Prefix.Table.t;
  sealed : sealed option Atomic.t;
}

type slot = t option Atomic.t

let empty_slot () = Atomic.make None

(* The table is filled key by key in index order, at the size
   [Measurement.run] has always given its table, so a fold over it, or
   over a copy that later keys were added to, lists keys where a run
   that filled its own table key by key always did. *)
let build initial =
  let n =
    Update.Session_map.fold (fun _ table0 n -> n + Prefix.Map.cardinal table0)
      initial 0
  in
  let keys = Key_table.create 65536 in
  let baselines = Array.make n Asn.Set.empty in
  let visibility = Prefix.Table.create 4096 in
  let i = ref 0 in
  iter_baselines initial (fun key set ->
      Key_table.add keys key !i;
      baselines.(!i) <- set;
      incr i;
      let cur =
        Option.value ~default:0 (Prefix.Table.find_opt visibility key.prefix)
      in
      Prefix.Table.replace visibility key.prefix (cur + 1));
  { source = initial; keys; baselines; visibility; sealed = Atomic.make None }

let for_run ~share slot initial =
  match Atomic.get slot with
  | Some t when t.source == initial -> t
  | current ->
      let t = build initial in
      (* By compare-and-set: a run that loses a race keeps its own, equal
         template, and one built from a stale source is replaced. *)
      if share then ignore (Atomic.compare_and_set slot current (Some t));
      t

let keys t = t.keys
let length t = Array.length t.baselines
let baseline t i = t.baselines.(i)
let visibility t = Prefix.Table.copy t.visibility

let unbuilt =
  { key =
      { session = { Update.collector = ""; peer = Asn.of_int 0 };
        prefix = Prefix.host (Ipv4.of_int_trunc 0) };
    baseline = None; updates = 0; path_changes = 0; residency = [];
    contiguous = []; final_set = None }

let sealed_at t horizon =
  match Atomic.get t.sealed with
  | Some s
    when Int64.equal (Int64.bits_of_float s.horizon)
           (Int64.bits_of_float horizon) -> s
  | _ ->
      let s = { horizon; cells = Array.make (length t) unbuilt } in
      Atomic.set t.sealed (Some s);
      s

let sealed_cell t s key i =
  let c = s.cells.(i) in
  if c != unbuilt then c
  else begin
    let base = t.baselines.(i) in
    let runs = sealed_runs base s.horizon in
    let set = Some base in
    let c =
      { key; baseline = set; updates = 0; path_changes = 0; residency = runs;
        contiguous = runs; final_set = set }
    in
    s.cells.(i) <- c;
    c
  end
