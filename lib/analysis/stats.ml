let check = function
  | [] -> invalid_arg "Stats: empty sample"
  | xs -> xs

let mean xs =
  let xs = check xs in
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let variance xs =
  let m = mean xs in
  let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
  sq /. float_of_int (List.length xs)

let percentile xs p =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list (check xs) in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let median xs = percentile xs 50.
let minimum xs = List.fold_left Float.min infinity (check xs)
let maximum xs = List.fold_left Float.max neg_infinity (check xs)

let of_ints = List.map float_of_int
