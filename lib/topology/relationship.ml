type t = Customer | Provider | Peer

let invert = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer

let to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"

let equal a b =
  match (a, b) with
  | Customer, Customer | Provider, Provider | Peer, Peer -> true
  | (Customer | Provider | Peer), _ -> false

let export_allowed ~learned_from ~to_ =
  match (learned_from, to_) with
  | Customer, _ -> true
  | (Peer | Provider), Customer -> true
  | (Peer | Provider), (Peer | Provider) -> false

let preference_class = function
  | Customer -> 2
  | Peer -> 1
  | Provider -> 0
