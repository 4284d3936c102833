(* A minimal JSON value type with a writer and a reader: enough for the
   qs-bench/1 results files and BENCHMARK.json. Numbers are floats;
   integral values print without a fraction, others with 17 significant
   digits so a measured value round-trips exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let number x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Qsjson.number: %f is not a JSON number" x);
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let escape buf s =
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
           Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num x -> Buffer.add_string buf (number x)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
           if i > 0 then Buffer.add_string buf ", ";
           write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
           if i > 0 then Buffer.add_string buf ", ";
           write buf (Str k);
           Buffer.add_string buf ": ";
           write buf v)
        l;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  write buf v;
  Buffer.contents buf

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' -> incr pos; skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
           | '"' | '\\' | '/' -> Buffer.add_char buf e
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               if !pos + 4 > n then fail "short \\u escape";
               let code = int_of_string ("0x" ^ String.sub s !pos 4) in
               pos := !pos + 4;
               (* Only the ASCII range is ever written by this project. *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else Buffer.add_char buf '?'
           | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            skip ();
            expect '"';
            let k = string_body () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> incr pos; Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
              | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
              | _ -> false)
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
         | Some x when !pos > start -> Num x
         | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  parse s

let member k = function
  | Obj l -> List.assoc_opt k l
  | _ -> None

let field k v =
  match member k v with
  | Some x -> x
  | None -> raise (Error (Printf.sprintf "missing field %S" k))

let to_num = function Num x -> x | _ -> raise (Error "expected a number")
let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")
let to_bool = function Bool b -> b | _ -> raise (Error "expected a boolean")
