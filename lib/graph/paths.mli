(** Shortest paths, eccentricities and diameter.

    In the OCD model a token traverses one arc per timestep regardless
    of capacity, so the natural metric for *time* is hop count; all
    distance functions here default to unit arc costs.  A general
    Dijkstra over a caller-supplied cost function is provided for
    baselines that weight arcs differently (e.g. inverse capacity). *)

val dijkstra :
  Digraph.t ->
  cost:(Digraph.vertex -> Digraph.vertex -> int) ->
  Digraph.vertex ->
  int array * int array
(** [dijkstra g ~cost src] returns [(dist, parent)] where [dist.(v)] is
    the least total cost of a path [src -> v] ([max_int] if
    unreachable) and [parent.(v)] is the predecessor on one such path
    ([-1] for the source and unreachable vertices).  [cost u v] must be
    non-negative for every arc [(u, v)]. *)

val eccentricity : Digraph.t -> Digraph.vertex -> int
(** Max hop distance from the vertex to any reachable vertex. *)

val diameter : Digraph.t -> int
(** Max finite hop distance over all ordered pairs.  0 for graphs with
    fewer than two vertices. *)
