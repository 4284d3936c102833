(* The SplitMix64 state lives unboxed in 8 bytes: a draw reads and writes
   it in place, where a [mutable state : int64] field would allocate a
   fresh boxed int64 on every step. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int64 t = next t

let split t = create (next t)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively.
     Rejection-free: modulo bias is negligible for bound << 2^62. *)
  let v = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let[@inline] float t bound =
  (* 53 random bits -> uniform in [0, 1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  let u = Int64.to_float bits /. 9007199254740992.0 in
  u *. bound

let bool t = Int64.logand (next t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let pareto t ~alpha ~xmin =
  if alpha <= 0. || xmin <= 0. then invalid_arg "Rng.pareto: parameters must be positive";
  let u = 1.0 -. float t 1.0 in
  xmin /. (u ** (1.0 /. alpha))

let geometric t p =
  if not (0. < p && p <= 1.) then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p = 1.0 then 0
  else begin
    let u = 1.0 -. float t 1.0 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
  end

let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* Loops over float refs, which the native compiler keeps unboxed: a
   draw allocates nothing, however long [w] is. The sums are taken in
   index order, so the running total and the pick are those of a plain
   left fold. *)
let weighted_index t w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Rng.weighted_index: empty weights";
  let total = ref 0. in
  for i = 0 to n - 1 do
    if w.(i) < 0. then invalid_arg "Rng.weighted_index: negative weight";
    total := !total +. w.(i)
  done;
  if !total <= 0. then invalid_arg "Rng.weighted_index: all-zero weights";
  let target = float t !total in
  (* the first [i] whose running sum exceeds [target]; the last index
     takes whatever rounding leaves over *)
  let i = ref 0 and acc = ref 0. in
  while
    !i < n - 1
    && begin
      acc := !acc +. w.(!i);
      not (target < !acc)
    end
  do
    incr i
  done;
  !i

let sample_without_replacement t k arr =
  let n = Array.length arr in
  if k >= n then begin
    let copy = Array.copy arr in
    shuffle t copy;
    Array.to_list copy
  end else begin
    (* Partial Fisher-Yates: shuffle only the first k slots. *)
    let copy = Array.copy arr in
    let out = ref [] in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = copy.(i) in
      copy.(i) <- copy.(j);
      copy.(j) <- tmp;
      out := copy.(i) :: !out
    done;
    !out
  end
