(** Weak connectivity: components of the undirected view of a digraph.
    The topology layer uses these functions to repair generated graphs,
    whose edges carry both arc directions, so that flooding heuristics
    reach every vertex. *)

val weakly_connected_components : Digraph.t -> Digraph.vertex list list

val is_weakly_connected : Digraph.t -> bool
