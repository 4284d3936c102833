type t = int

let mask32 = 0xFFFFFFFF

let of_int_trunc i = i land mask32
let to_int a = a

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range"
  in
  check a; check b; check c; check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string_opt s =
  match String.split_on_char '.' s with
  | [a; b; c; d] -> begin
      match (int_of_string_opt a, int_of_string_opt b,
             int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a <= 255 && b >= 0 && b <= 255
          && c >= 0 && c <= 255 && d >= 0 && d <= 255 ->
          Some (of_octets a b c d)
      | _ -> None
    end
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string: %S" s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xFF) ((a lsr 16) land 0xFF)
    ((a lsr 8) land 0xFF) (a land 0xFF)

let pp ppf a = Format.pp_print_string ppf (to_string a)

let compare = Int.compare
let equal = Int.equal

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit: index out of range";
  (a lsr (31 - i)) land 1 = 1

let succ a = (a + 1) land mask32
let add a n = (a + n) land mask32
