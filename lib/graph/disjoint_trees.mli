(** k edge-disjoint spanning trees rooted at a source.

    SplitStream and Young et al. (related work, §2) distribute content
    over a forest of edge-disjoint trees so that no single overlay link
    carries every stripe.  This module greedily extracts up to [k]
    arc-disjoint out-trees rooted at a given source: each round runs a
    BFS that may only use arcs unused by previous trees.  The greedy
    extraction is not guaranteed to reach Edmonds' arboricity bound but
    is the standard practical construction. *)

type tree = {
  root : Digraph.vertex;
  parent : int array;  (** [-1] for the root and for vertices outside the tree *)
  children : Digraph.vertex list array;
}
(** A rooted out-tree over a digraph's vertices, also the shape of the
    baselines' single distribution trees. *)

type forest = tree list

val extract : Digraph.t -> root:Digraph.vertex -> k:int -> forest
(** Up to [k] arc-disjoint spanning trees of the vertices reachable
    from [root]; stops early when a round cannot reach every vertex
    that the first tree reached. *)
