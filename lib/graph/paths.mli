(** Shortest paths, eccentricities, diameter and hop-radius closures.

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

val shortest_path :
  Digraph.t ->
  cost:(Digraph.vertex -> Digraph.vertex -> int) ->
  Digraph.vertex ->
  Digraph.vertex ->
  Digraph.vertex list option
(** Vertex sequence from source to destination inclusive, or [None]. *)

val eccentricity : Digraph.t -> Digraph.vertex -> int
(** Max hop distance from the vertex to any reachable vertex. *)

val diameter : Digraph.t -> int
(** Max finite hop distance over all ordered pairs.  0 for graphs with
    fewer than two vertices. *)

val closure : Digraph.t -> Digraph.vertex -> radius:int -> Digraph.vertex list
(** Vertices [u] with hop distance [u -> v] at most [radius] — i.e. the
    vertices whose tokens could reach [v] within [radius] timesteps.
    This is the closure used by the §5.1 remaining-moves bound; note
    the *incoming* direction. *)
