(** Explicit LOCD knowledge propagation (§4.1).

    The LOCD model requires every decision of vertex [v] at step [i]
    to be a function of its knowledge [k_i(v)], where [k_0(v)] derives
    from [v]'s own neighbourhood, [h(v)] and [w(v)], and [k_{i+1}(v)]
    may additionally fold in [k_i(u)] for each neighbour [u]
    (knowledge travels both directions along an edge).

    This module tracks the *provenance* form of that knowledge: which
    vertices' initial states each vertex has learned.  Since initial
    states and topology are static in the OCD model, "knows the state
    of [u]" is exactly "has [h(u)], [w(u)] and [u]'s incident edges" —
    enough, once complete, to reconstruct the whole instance and run
    any offline planner, which is how the §4.2 diameter-additive
    online algorithm works ({!Flood_optimal}).

    Propagation reaches completion after exactly
    [max_v ecc_undirected(v)] steps — the undirected eccentricity —
    which the test suite checks against the graph diameter. *)

val steps_to_complete : Ocd_core.Instance.t -> int
(** Number of synchronous exchange rounds, each vertex merging what
    its neighbours knew at the start of the round, until every vertex
    knows every initial state; raises [Invalid_argument] if the graph
    is not weakly connected (knowledge can never complete). *)
