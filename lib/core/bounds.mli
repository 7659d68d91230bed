(** Lower-bound estimators (§5.1).

    These give cheap, not necessarily tight, lower bounds on the
    bandwidth and makespan any successful schedule must pay, evaluated
    either on an instance's initial state or on an intermediate
    possession state (the simulator uses them to report optimality
    gaps).

    - The remaining bandwidth "counts every token that is wanted but
      not known at each vertex" — the bandwidth needed if the schedule
      could finish in one step.
    - {!remaining_makespan} is the paper's [M_i(v) = i +
      ceil(|T^{c_i(v)}| / indeg(v))] bound, maximised over all radii
      [i] and vertices [v], where [T^{c_i(v)}] is the set of tokens
      the vertex still needs whose nearest current holder is more than
      [i] hops away.  We divide by the vertex's total incoming
      *capacity* (the per-step intake ceiling); with the paper's unit
      interpretation of "indegree" this is the natural capacitated
      generalisation.
    - {!one_step_feasible} is the paper's special-cased single-step
      lookahead: a necessary condition for the remaining distribution
      to complete in one timestep. *)

open Ocd_prelude

val bandwidth_lower_bound : Instance.t -> int
(** The remaining bandwidth (total deficit) at the initial state. *)

val remaining_makespan : Instance.t -> have:Bitset.t array -> int
(** The [max_v max_i M_i(v)] bound from the current state; 0 when all
    wants are met.  One forward multi-source BFS per distinct holder
    set of the tokens some vertex still needs, seeded from those
    holders, gives every vertex its deficit tokens' nearest-holder
    distances: O(T·n + G·(n + m)) time for [T] needed tokens with [G]
    distinct holder sets, plus sorting each vertex's distances.
    @raise Invalid_argument if some wanted token is unreachable from
    every current holder. *)

val makespan_lower_bound : Instance.t -> int
(** {!remaining_makespan} at the initial state. *)

val one_step_feasible : Instance.t -> have:Bitset.t array -> bool
(** Necessary condition for finishing in one more step: every deficit
    token of each vertex is held by an in-neighbour and the per-arc
    capacities admit a fractional assignment covering each vertex's
    deficit ([|deficit(v)| <= Σ_u min(cap(u,v), |deficit(v) ∩
    have(u)|)]).  [true] does not guarantee feasibility (the exact
    question is an assignment problem); [false] proves ≥ 2 steps. *)
