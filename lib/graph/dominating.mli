(** Dominating sets.

    The appendix of the paper proves FOCD NP-hard by reduction from
    Dominating Set; this module provides the exact solver used to
    validate that reduction on small graphs.

    Domination is taken over the undirected view of the digraph: a set
    [D] dominates when every vertex is in [D] or adjacent to a member
    of [D]. *)

val minimum : Digraph.t -> Digraph.vertex list
(** Exact minimum dominating set by cardinality-ordered subset search.
    Exponential; intended for [n <= ~20]. *)

val exists_of_size : Digraph.t -> int -> bool
(** [exists_of_size g k]: is there a dominating set of size <= k? *)
