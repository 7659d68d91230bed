(** Breadth-first search over {!Digraph}. *)

val bfs_levels : Digraph.t -> Digraph.vertex -> int array
(** Hop distance from the root along directed arcs; [-1] when
    unreachable. *)

val bfs_levels_multi : Digraph.t -> Digraph.vertex list -> int array
(** Multi-source BFS: distance to the nearest of the given roots. *)

val reachable : Digraph.t -> Digraph.vertex -> bool array
(** Reachability from a root along directed arcs. *)
