(** Minimum spanning trees (Prim) over the undirected view of a
    digraph.

    The cost of an undirected edge [{u, v}] is supplied by the caller;
    baselines typically use hop cost 1 (minimising total arcs) or an
    inverse-capacity cost (preferring fat links, as Overcast does). *)

type tree = {
  root : Digraph.vertex;
  parent : int array;  (** [-1] for the root; spans reachable vertices *)
  children : Digraph.vertex list array;
}

val prim :
  Digraph.t ->
  cost:(Digraph.vertex -> Digraph.vertex -> int) ->
  root:Digraph.vertex ->
  tree
(** Spanning tree of the weakly-reachable component of [root] using
    symmetric costs; vertices not connected to [root] have
    [parent = -1] and no children entry. *)

val depth : tree -> int array
(** Hop depth of each vertex in the tree; [-1] when outside it. *)
