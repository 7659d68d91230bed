(** The §3.4 time-indexed integer program.

    Variables [x^i_{(u,v),t} ∈ {0,1}] state that token [t] crosses arc
    [(u,v)] during (paper-)step [i]; the graph is extended with a
    self-arc per vertex whose variables encode storage.  Constraints:

    - possession: [x^i_{(u,v),t} ≤ Σ_{(w,u) ∈ E'} x^{i-1}_{(w,u),t}]
      with [x^0_{(v,v),t} = 1 iff t ∈ h(v)];
    - capacity: [Σ_t x^i_{(u,v),t} ≤ c(u,v)] on real arcs;
    - delivery: [x^{τ+1}_{(v,v),t} ≥ 1] for [t ∈ w(v)].

    The objective minimises the real-arc variable sum — the schedule's
    bandwidth — so solving at horizon [τ] answers EOCD-with-deadline,
    and the smallest feasible [τ] (found by linear search from the
    {!Ocd_core.Bounds.makespan_lower_bound}) answers FOCD.  Solved
    with the in-house {!Simplex} + {!Ilp}; intended for the same small
    instances the paper solves exactly. *)

open Ocd_core

type outcome =
  | Solved of { bandwidth : int; schedule : Schedule.t }
  | Infeasible_at_horizon
  | Budget_exceeded

val eocd_at_horizon :
  ?max_nodes:int -> Instance.t -> horizon:int -> outcome
(** Minimum-bandwidth schedule of length at most [horizon]. *)

val focd : Instance.t -> (int * Schedule.t) option
(** Smallest horizon admitting a successful schedule, with a witness;
    [None] when no horizon up to 16 works or the solver budget is
    exhausted. *)

val variable_count : Instance.t -> horizon:int -> int
(** Size of the generated program (for reporting). *)
