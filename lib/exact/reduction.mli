(** The appendix reduction: Dominating Set ≤p FOCD.

    Given an (undirected) graph [G = (V, E)] with [n = |V|] and a
    budget [k], the reduction builds a FOCD instance on [2n + 2]
    vertices [{s, t} ∪ V ∪ V'] and [n - k + 1] tokens
    [{0} ∪ {1, …, n-k}]:

    - [s] holds every token; [t] wants [{1, …, n-k}]; every [v'_i]
      wants [{0}];
    - arcs (all capacity 1): [s → v_i], [v_i → t], [v_i → v'_i], and
      [v_i → v'_j] for each edge [(v_i, v_j) ∈ E].

    Theorem 5: [G] has a dominating set of size ≤ [k] iff the instance
    is solvable in two timesteps.  This module provides the instance
    builder, the constructive direction (a 2-step schedule from a
    dominating set), and a specialised exact 2-step decision procedure
    that exploits the reduction's layered structure (step 1 is an
    assignment of at most one token to each [v_i]; step 2 is then
    checkable directly) — so the equivalence can be verified on graphs
    beyond the generic search solver's reach. *)

open Ocd_core

val vertex_s : int
val vertex_t : int

val instance : Ocd_graph.Digraph.t -> k:int -> Instance.t
(** The FOCD instance for deciding "dominating set of size ≤ k".
    The input digraph is interpreted as undirected (arc in either
    direction = edge).  Requires [0 <= k <= n]. *)

val schedule_of_dominating_set :
  Ocd_graph.Digraph.t -> k:int -> dominating:int list -> Schedule.t
(** The constructive 2-step schedule of Theorem 5's forward direction.
    @raise Invalid_argument if [dominating] is not a dominating set of
    size ≤ [k]. *)

val two_step_solvable : Ocd_graph.Digraph.t -> k:int -> bool
(** Exact decision of "the reduced instance is solvable in 2 steps",
    by exhaustive search over step-1 token assignments with the
    structure-aware step-2 check. *)
