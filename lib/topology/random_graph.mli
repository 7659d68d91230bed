(** Random overlay topologies.

    The paper's "random graphs" add each undirected edge independently
    with probability [2 ln n / n] — just above the connectivity
    threshold of G(n,p) — "which maintains reasonable connectedness"
    while the edge count grows as O(n ln n).  Since flooding heuristics
    need every wanter to be reachable, generators repair
    connectivity by linking consecutive weakly-connected components
    with one extra edge each (a negligible perturbation at this p).

    {2 Seed streams}

    Each generator has one deterministic stream per seed, at every
    size: geometric skip sampling (Batagelj–Brandes) over the vertex
    pairs in column-major order, so a graph costs O(n + m) expected
    draws instead of n(n-1)/2.  Edge capacities are then drawn in edge
    order, and connectivity repair draws last. *)

open Ocd_prelude

val erdos_renyi :
  Prng.t ->
  n:int ->
  ?p:float ->
  ?weights:Weights.policy ->
  unit ->
  Ocd_graph.Digraph.t
(** G(n, p) with undirected edges realised as arc pairs.  [p] defaults
    to [2 ln n / n] (clamped to [\[0, 1\]]); [weights] defaults to
    {!Weights.paper_default}; weak connectivity is always repaired. *)

val waxman :
  Prng.t ->
  n:int ->
  ?weights:Weights.policy ->
  unit ->
  Ocd_graph.Digraph.t
(** Waxman (1988) geometric random graph on the unit square: vertices
    placed uniformly, edge [{u,v}] with probability
    [alpha * exp (-d(u,v) / (beta * sqrt 2))], with [alpha = 0.4] and
    [beta = 0.2]; weak connectivity is always repaired. *)

val paper_p : int -> float
(** [2 ln n / n], the paper's edge probability. *)

val skip_pairs : Prng.t -> k:int -> p:float -> (int -> int -> unit) -> unit
(** [skip_pairs rng ~k ~p f] calls [f w v] for each pair [w < v < k]
    of a G(k, p) sample, [v] ascending and [w] ascending within [v],
    jumping over non-edges with one geometric draw each.  [f] may draw
    from [rng] itself (thinning does); nothing is drawn when [p <= 0].
    {!Transit_stub} samples its intra-domain edges with it. *)
