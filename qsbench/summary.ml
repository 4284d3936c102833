(* Order statistics used by qsbench and bench_diff. [quartiles] follows
   Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
   spread computed here matches one computed from the same samples in
   Python. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  match sorted xs with
  | [||] -> (nan, nan)
  | [| x |] -> (x, x)
  | a ->
      let n = Array.length a in
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      (q 1, q 3)

(* Distance between the quartiles as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let percentile a p =
  (* [a] sorted ascending, non-empty; nearest-rank. *)
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) k))
