type t = { net : Ipv4.t; len : int }

let mask_of_len len =
  if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  { net = Ipv4.of_int_trunc (Ipv4.to_int addr land mask_of_len len); len }

let network p = p.net
let length p = p.len

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> None
  | Some i ->
      let addr = String.sub s 0 i in
      let len = String.sub s (i + 1) (String.length s - i - 1) in
      begin match (Ipv4.of_string_opt addr, int_of_string_opt len) with
      | Some addr, Some len when len >= 0 && len <= 32 -> Some (make addr len)
      | _ -> None
      end

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.net) p.len
let pp ppf p = Format.pp_print_string ppf (to_string p)

let compare p q =
  match Ipv4.compare p.net q.net with
  | 0 -> Int.compare p.len q.len
  | c -> c

let equal p q = compare p q = 0
(* [net] is a multiple of 256 for every prefix of /24 or shorter, so the
   key is packed into 38 bits, multiplied by an odd constant and folded
   high bits onto low: [Hashtbl] picks buckets by the low bits. *)
let hash p =
  let h = ((Ipv4.to_int p.net lsl 6) lor p.len) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let mem addr p = Ipv4.to_int addr land mask_of_len p.len = Ipv4.to_int p.net

let subsumes p q = p.len <= q.len && mem q.net p
let overlaps p q = subsumes p q || subsumes q p

let split p =
  if p.len = 32 then invalid_arg "Prefix.split: cannot split a /32";
  let len = p.len + 1 in
  let low = { net = p.net; len } in
  let high_net = Ipv4.of_int_trunc (Ipv4.to_int p.net lor (1 lsl (32 - len))) in
  (low, { net = high_net; len })

let host addr = { net = addr; len = 32 }

let first p = p.net

let size p = 1 lsl (32 - p.len)

let last p = Ipv4.of_int_trunc (Ipv4.to_int p.net lor (size p - 1))

let nth p i =
  if i < 0 || i >= size p then invalid_arg "Prefix.nth: index out of range";
  Ipv4.add p.net i

module Key = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Key)
module Map = Map.Make (Key)

module Table = Hashtbl.Make (struct
    type nonrec t = t
    let equal = equal
    let hash = hash
  end)
