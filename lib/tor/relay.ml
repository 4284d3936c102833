type flag = Guard | Exit | Fast | Stable

type t = {
  nickname : string;
  ip : Ipv4.t;
  asn : Asn.t;
  bandwidth : int;
  flags : flag list;
}

let make ~nickname ~ip ~asn ~bandwidth ~flags =
  if bandwidth < 0 then invalid_arg "Relay.make: negative bandwidth";
  { nickname; ip; asn; bandwidth; flags }

let flag_equal a b =
  match (a, b) with
  | Guard, Guard | Exit, Exit | Fast, Fast | Stable, Stable -> true
  | (Guard | Exit | Fast | Stable), _ -> false

(* A top-level walk: [List.exists (flag_equal f)], or a local [mem]
   closing over [f], would allocate a closure per call, and building a
   consensus' pools asks every relay twice per pool. *)
let rec mem_flag f = function
  | [] -> false
  | g :: rest -> flag_equal f g || mem_flag f rest

let has_flag t f = mem_flag f t.flags
let is_guard t = has_flag t Guard
let is_exit t = has_flag t Exit

let flag_to_string = function
  | Guard -> "Guard"
  | Exit -> "Exit"
  | Fast -> "Fast"
  | Stable -> "Stable"

let flag_of_string = function
  | "Guard" -> Some Guard
  | "Exit" -> Some Exit
  | "Fast" -> Some Fast
  | "Stable" -> Some Stable
  | _ -> None

let pp ppf t =
  Format.fprintf ppf "%s %a bw=%d [%s]" t.nickname Ipv4.pp t.ip t.bandwidth
    (String.concat "," (List.map flag_to_string t.flags))

let equal a b = Ipv4.equal a.ip b.ip
