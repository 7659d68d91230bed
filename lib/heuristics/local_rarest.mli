(** The Local heuristic — rarest random with request subdivision (§5.1).

    "The design of our local heuristic is based on the commonly
    proposed notion of 'rarest random' [...].  For simplicity, we have
    assumed that at every time step, the step's initial aggregate need
    and knowledge are distributed to all vertices.  [...] To avoid the
    problem where two peers send the same 'rare' block in the same
    direction, our heuristic subdivides a vertex's needs to their
    peers.  This is analogous to a request for blocks."

    Knowledge model: own state, each neighbour's possession, and the
    global aggregate have/need vectors of the current step
    ({!Aggregates}).  Each receiver ranks the tokens it lacks by
    rarity (ascending holder count, ties shuffled), then assigns each
    such token to exactly one in-neighbour that holds it, subject to
    arc capacities — so no two peers push the same block at it in the
    same turn.  Like the other flooding heuristics it requests *all*
    tokens it lacks, not only wanted ones, which is what lets content
    cross non-receiver relays (and why its bandwidth does not shrink
    with receiver density, as Figure 4 shows). *)

val strategy : Ocd_engine.Strategy.t

val strategy_without_subdivision : Ocd_engine.Strategy.t
(** Ablation variant: sender-driven rarest-first pushing with no
    request subdivision — each sender independently pushes its rarest
    useful tokens, so "two peers send the same rare block in the same
    direction".  Used by the bench harness to quantify how much the
    paper's subdivision step saves. *)
