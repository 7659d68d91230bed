open Ocd_prelude

type dht =
  | Find_succ of { target : int; ticket : int }
  | Succ_info of { ticket : int; node : int; final : bool }
  | Get_neighbors of { ticket : int }
  | Neighbors of { ticket : int; pred : int; succs : int list }
  | Notify
  | Store of { token : int; holder : int; replica : bool }
  | Get_providers of { token : int; ticket : int }
  | Providers of { token : int; ticket : int; holders : int list }

type t =
  | Announce of Bitset.t
  | Request of int
  | Data of int
  | Ack of int
  | State of Bitset.t
  | Dht of dht

let is_data = function Data _ -> true | _ -> false
