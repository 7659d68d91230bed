(** Shared helpers for the related-work baseline systems. *)

open Ocd_core
open Ocd_prelude

val default_source : Instance.t -> int
(** The vertex initially holding the most tokens (ties: lowest id) —
    the natural "source" of single-origin scenarios. *)

val widest_path_tree :
  Ocd_graph.Digraph.t -> root:int -> Ocd_graph.Disjoint_trees.tree
(** Overcast-style bandwidth-optimised tree: maximises, for every
    vertex, the bottleneck arc capacity of its path from the root
    (a max-bottleneck Dijkstra over directed arcs). *)

val send_down_arc :
  buf:Bitset.t ->
  have:Bitset.Rows.t -> src:int -> dst:int -> cap:int ->
  only:Bitset.t option -> unit ->
  Move.t list
(** Up to [cap] lowest-id tokens held by [src], lacked by [dst] and
    (when [only] is given) within [only]; the building block of the
    tree-pipelining baselines.  [have] is possession, one row per
    vertex; [buf] is a reusable work set (token capacity) whose
    previous contents are overwritten. *)
