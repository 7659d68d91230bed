type kind = Random | Transit_stub | Waxman

let all_kinds = [ Random; Transit_stub; Waxman ]

let kind_name = function
  | Random -> "random"
  | Transit_stub -> "transit-stub"
  | Waxman -> "waxman"

let kind_of_name = function
  | "random" -> Some Random
  | "transit-stub" | "transit_stub" | "ts" -> Some Transit_stub
  | "waxman" -> Some Waxman
  | _ -> None

let generate rng kind ~n =
  match kind with
  | Random -> Random_graph.erdos_renyi rng ~n ()
  | Waxman -> Random_graph.waxman rng ~n ()
  | Transit_stub -> Transit_stub.generate rng (Transit_stub.params_for_size n)
