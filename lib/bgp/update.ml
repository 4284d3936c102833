type session_id = { collector : string; peer : Asn.t }

let session_compare a b =
  match String.compare a.collector b.collector with
  | 0 -> Asn.compare a.peer b.peer
  | c -> c

let session_equal a b = session_compare a b = 0

let pp_session ppf s =
  Format.fprintf ppf "%s:%a" s.collector Asn.pp s.peer

type kind =
  | Announce of Route.t
  | Withdraw of Prefix.t

type t = { time : float; session : session_id; kind : kind }

let prefix t =
  match t.kind with
  | Announce r -> r.Route.prefix
  | Withdraw p -> p

let is_announce t =
  match t.kind with
  | Announce _ -> true
  | Withdraw _ -> false

let pp ppf t =
  match t.kind with
  | Announce r ->
      Format.fprintf ppf "%.1f %a A %a" t.time pp_session t.session Route.pp r
  | Withdraw p ->
      Format.fprintf ppf "%.1f %a W %a" t.time pp_session t.session Prefix.pp p

module Session_map = Map.Make (struct
    type t = session_id
    let compare = session_compare
  end)

module Session_table = Hashtbl.Make (struct
    type t = session_id

    let equal = session_equal
    let hash s = (Hashtbl.hash s.collector * 31) + Asn.hash s.peer
  end)
