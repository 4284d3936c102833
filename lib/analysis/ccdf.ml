type t = { sorted : float array }

let is_pos_zero x = x = 0. && not (Float.sign_bit x)

(* [Array.sort Float.compare] boxes every element it reads, and most
   samples are +0 (no path change, no extra AS): only the others are
   sorted, and the +0 block goes right after those that sort below 0 (nan
   and the negatives), which is where a sort of every sample puts it. *)
let of_samples xs =
  let rest = Array.of_list (List.filter (fun x -> not (is_pos_zero x)) xs) in
  Array.sort Float.compare rest;
  let n = List.length xs and k = Array.length rest in
  let below = ref 0 in
  while !below < k && Float.compare rest.(!below) 0. < 0 do incr below done;
  let sorted = Array.make n 0. in
  Array.blit rest 0 sorted 0 !below;
  Array.blit rest !below sorted (!below + n - k) (k - !below);
  { sorted }

let size t = Array.length t.sorted

(* Index of the first element >= x, by binary search. *)
let lower_bound t x =
  let n = Array.length t.sorted in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.sorted.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let at t x =
  let n = Array.length t.sorted in
  (* Empty sample: no sample is >= x, so the tail mass is 0 everywhere
     (and not the 0/0 = nan the unguarded division would produce). *)
  if n = 0 then 0.
  else float_of_int (n - lower_bound t x) /. float_of_int n

let points t =
  let n = Array.length t.sorted in
  let rec distinct i acc =
    if i >= n then List.rev acc
    else if i > 0 && t.sorted.(i) = t.sorted.(i - 1) then distinct (i + 1) acc
    else distinct (i + 1) ((t.sorted.(i), at t t.sorted.(i)) :: acc)
  in
  distinct 0 []

let eval_at t xs = List.map (fun x -> (x, at t x)) xs

let quantile_where t q =
  if Array.length t.sorted = 0 then None
  else
    match
      List.find_map (fun (x, p) -> if p <= q then Some x else None) (points t)
    with
    | Some _ as found -> found
    | None ->
        (* [q] is below the tail mass at the maximum: no sample value has
           [at t x <= q], and the largest sample is the tightest answer. *)
        Some t.sorted.(Array.length t.sorted - 1)
