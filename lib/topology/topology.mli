(** Uniform façade over the topology generators, used by the CLI and
    the benchmark harness to select evaluation graphs by name. *)

open Ocd_prelude

type kind =
  | Random        (** Erdős–Rényi with the paper's [2 ln n / n] *)
  | Transit_stub  (** GT-ITM-style two-level hierarchy *)
  | Waxman        (** geometric random graph *)

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

val generate : Prng.t -> kind -> n:int -> Ocd_graph.Digraph.t
(** A connected graph of (approximately, for transit-stub) [n]
    vertices, capacities drawn from {!Weights.paper_default}. *)
