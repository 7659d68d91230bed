(** Connectivity structure: strongly connected components (Tarjan) and
    weak connectivity.  The evaluation topologies must be strongly
    connected for flooding heuristics to terminate; the topology layer
    uses these functions to verify or repair generated graphs. *)

val strongly_connected_components : Digraph.t -> Digraph.vertex list list
(** Components in reverse topological order of the condensation. *)

val is_strongly_connected : Digraph.t -> bool

val weakly_connected_components : Digraph.t -> Digraph.vertex list list

val is_weakly_connected : Digraph.t -> bool
