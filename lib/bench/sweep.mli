(** Multi-trial experiment runner.

    The paper's methodology: "We generate several instances of the
    graph for each size graph, and repeat our heuristics 3 times for
    each graph" — seeded here so every figure is reproducible.  For
    each x-axis point this module builds an instance (from a seed
    derived from the base seed and the point), runs every strategy for
    the configured number of trials, and aggregates makespan ("moves"
    in the figures' terminology), bandwidth, pruned bandwidth and the
    §5.1 lower bounds.

    Both {!run_point} and {!run_sweep} accept [?jobs] and fan their
    embarrassingly parallel work (the strategy × trial grid within a
    point; the points of a sweep) over an {!Ocd_prelude.Pool} of
    domains.  Every task derives its PRNG from an explicit seed, so
    results are byte-identical for any [jobs] value. *)

open Ocd_core

type aggregate = {
  strategy : string;
  completed : int;  (** trials that actually satisfied every vertex *)
  moves : Ocd_prelude.Stats.summary option;
      (** makespan over the completed trials; [None] when no trial
          completed — a stalled run has no makespan, and rendering the
          step count it happened to reach would overstate the strategy *)
  bandwidth : Ocd_prelude.Stats.summary;
  pruned : Ocd_prelude.Stats.summary;
}

type point_result = {
  x_label : string;
  bandwidth_lb : int;
  makespan_lb : int option;
      (** [None] when the instance is unsatisfiable — the §5.1 bound is
          undefined there, not zero *)
  aggregates : aggregate list;
}

type point_spec = {
  label : string;   (** x-axis label for the point *)
  point_seed : int; (** base seed: instance build and engine trials *)
  build : Ocd_prelude.Prng.t -> Instance.t;
}

val run_point :
  ?trials:int ->
  ?jobs:int ->
  seed:int ->
  strategies:Ocd_engine.Strategy.t list ->
  x_label:string ->
  (Ocd_prelude.Prng.t -> Instance.t) ->
  point_result
(** [run_point ~seed ~strategies ~x_label build] derives a fresh PRNG
    from [seed], builds the instance once, and runs each strategy
    [trials] (default 3) times with distinct engine seeds, spreading
    the strategy × trial grid over [jobs] domains (default 1).
    Incomplete trials (stall / step limit) are kept — they contribute
    bandwidth but no makespan, and {!table} renders their moves cell
    as ["n/a"] (mirroring the ["-"] convention for undefined
    [makespan_lb]). *)

val run_sweep :
  ?trials:int ->
  ?jobs:int ->
  strategies:Ocd_engine.Strategy.t list ->
  point_spec list ->
  point_result list
(** Runs one {!run_point} per spec, parallelised across points
    (nested point-internal parallelism degrades to sequential, so the
    total worker count stays bounded by [jobs]).  Results are in spec
    order. *)

val table :
  title:string -> x_column:string -> point_result list -> Report.table
(** Builds (without printing) the standard moves/bandwidth table; pair
    with {!Report.to_string} for buffered emission. *)

val report :
  title:string -> x_column:string -> point_result list -> unit
(** Renders the standard moves/bandwidth table for a sweep. *)
