(** Simulation under time-varying network conditions.

    Each timestep the engine materialises the effective topology from
    the {!Condition}, hands the strategy a context whose instance
    carries that topology (so adaptive heuristics see current
    conditions, like real systems probing their links), and then
    *enforces* the effective capacities: moves beyond an arc's
    effective capacity — e.g. from a strategy still acting on stale
    state — are dropped, modelling congestion loss of the excess.
    Moves on fully-down arcs are likewise dropped.  Malformed moves
    (missing arc, token not held) are strategy bugs, as in the static
    engine.

    The recorded schedule contains only the moves that were actually
    delivered; since effective capacities never exceed base
    capacities, it is always a valid §3.1 schedule of the *static*
    instance, and is revalidated as such.

    A vertex whose wants are temporarily unreachable simply waits;
    the stall guard therefore defaults to a more generous patience
    than the static engine's. *)

open Ocd_core

type run = {
  strategy_name : string;
  seed : int;
  outcome : Ocd_engine.Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  dropped_moves : int;
      (** proposals discarded by the condition (congestion losses) *)
  fresh_deliveries : int;
      (** distinct [(dst, token)] pairs delivered over the run *)
}

val run :
  ?stall_patience:int ->
  condition:Condition.t ->
  strategy:Ocd_engine.Strategy.t ->
  seed:int ->
  Instance.t ->
  run
(** {!Ocd_engine.Engine.rounds} under [Lossy] admission with the
    condition's effective capacities and [Wants] completion, so the
    step limit and [stall_patience] take the lossy defaults.  A move
    on a missing arc, with a token its source does not hold, or
    repeating an (arc, token) pair of the step is a strategy bug and
    raises {!Ocd_engine.Engine.Strategy_error}. *)
