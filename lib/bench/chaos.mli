(** Chaos campaign: a Pool-parallel robustness sweep for the
    asynchronous runtime.

    A campaign crosses a list of {e environment cells} — message loss,
    link flaps, vertex churn, node crash rate, network partitions —
    with every registered async protocol and [trials] seeds, runs each
    combination through {!Ocd_async.Runtime.run} under a runtime
    invariant monitor ({!Ocd_async.Monitor}), re-checks every produced
    schedule with {!Ocd_core.Validate}, and aggregates per (cell,
    protocol): completion rate, p95 completion ticks, mean
    retransmissions and duplicates, fault counters, monitor
    violations, and — for timed-out runs — the {!Ocd_async.Diagnosis}
    verdict census.

    Every trial is derived in one place: {!environment} maps a cell
    and its seed to the trial's profile, link condition and fault plan,
    and {!classify} maps a finished run to its failure tag, for the
    aggregates and the shrinker's replays alike.

    Determinism: every task derives its run, condition, and fault seeds
    from the campaign's base seed and the task's grid coordinates
    alone, and {!Ocd_prelude.Pool.map} preserves input order, so the
    rendered report is byte-identical for any [--jobs]. *)

module Net := Ocd_async.Net
module Condition := Ocd_dynamics.Condition
module Faults := Ocd_dynamics.Faults

type cell = {
  label : string;  (** stable row label for the report *)
  loss : float;  (** i.i.d. per-message loss probability *)
  flaps : bool;  (** link up/down Markov process *)
  churn : bool;  (** vertex departures (sources protected) *)
  crash_prob : float;  (** per-round node crash probability; 0 = off *)
  partition : (float * float) option;
      (** [(split_prob, heal_prob)] for a seeded two-sided partition
          process ({!Ocd_dynamics.Faults.partitions}); [None] = off *)
}

type grid = {
  n : int;  (** vertex count of the campaign instance *)
  tokens : int;
  trials : int;
  cells : cell list;
}

val smoke_grid : grid
(** Tiny fixed grid (4 cells, 2 trials, 12 vertices) for CI: exercises
    no-fault, loss + crash, flaps + crash, and crash + partition in
    seconds. *)

val default_grid : grid
(** The full campaign grid: loss {m \times} flaps {m \times} churn
    {m \times} crash-rate cells over a 24-vertex instance, plus
    partition cells. *)

val failing_grid : grid
(** A one-cell, one-trial grid constructed to fail deterministically
    (near-permanent partition): the input for the [--shrink] CI
    smoke.  See {!failures} and {!Shrink}. *)

val instance_of : seed:int -> n:int -> tokens:int -> Ocd_core.Instance.t
(** The campaign instance: an Erdős–Rényi graph and a single-file
    scenario drawn from one PRNG stream. *)

val sources_of : Ocd_core.Instance.t -> int list
(** Vertices with initial content, ascending (the churn-protected
    set). *)

val environment :
  cell ->
  cell_seed:int ->
  sources:int list ->
  Net.profile * Condition.t * Faults.t
(** The one trial derivation: the cell's network profile (default
    with the cell's loss), its link condition (flaps down 0.1 / up 0.5
    seeded [cell_seed + flap_off]; churn leave 0.02 / return 0.3
    seeded [cell_seed + churn_off], [sources] protected) and its fault
    plan (crashes seeded [cell_seed + 17]; a two-group partition
    process seeded [cell_seed + part_off]).  The condition and plan
    memoise their chains: call this inside the domain that runs the
    trial. *)

val flap_off : int
val churn_off : int
val part_off : int
(** Offsets from a cell seed to the seeds of its flap, churn and
    partition processes, which the reproducer artifact
    ({!Shrink.to_string}) prints.  Crashes are seeded
    [cell_seed + 17]. *)

val classify :
  Ocd_core.Instance.t ->
  Ocd_async.Runtime.run ->
  Ocd_async.Monitor.t ->
  string option
(** The failure tag of a finished run: [None] when it completed with a
    valid schedule and no monitor violation, otherwise, in this order,
    ["invalid-schedule"] ({!Ocd_core.Validate} rejects the schedule),
    ["monitor:<rule>"] (the first violation's rule) or
    ["stall:<verdict>"] ({!Ocd_async.Diagnosis.verdict_name}). *)

type agg = {
  env : string;
  protocol : string;
  trials : int;
  completed : int;
  p95_ticks : float option;  (** over completed trials; [None] if none *)
  retrans_mean : float;
  duplicates_mean : float;
  crashes : int;  (** total crash events across trials *)
  restarts : int;
  lost_tokens : int;
  failed_jobs : int;
  verdicts : (string * int) list;
      (** diagnosis verdict census of timed-out trials, by
          {!Ocd_async.Diagnosis.verdict_name}, fixed name order *)
  invalid : int;  (** schedules rejected by {!Ocd_core.Validate} *)
  violations : int;  (** runtime monitor violations across trials *)
  undiagnosed : int;  (** timed-out trials missing a diagnosis: bug *)
}

type trial_setup = {
  t_instance : Ocd_core.Instance.t;
  t_profile : Net.profile;
  t_condition : Condition.t;
  t_faults : Faults.t;
  t_run_seed : int;
  t_protocol : Ocd_async.Protocol.t;
  t_cell : cell;
}
(** Everything needed to replay one (cell, protocol, trial) grid point
    outside the campaign — same instance, profile, condition, fault
    plan and run seed the campaign task derived, so a standalone
    {!Ocd_async.Runtime.run} (e.g. under a causal log, for
    [ocd explain]) reproduces the campaign trial tick-for-tick. *)

val trial_setup :
  seed:int ->
  grid ->
  cell_label:string ->
  protocol:string ->
  trial:int ->
  (trial_setup, string) result
(** Resolves a cell by its {!cell.label} (see the campaign report's
    [env] column) and a protocol by registry name.  [Error] carries a
    human-readable message listing valid labels. *)

type case = {
  protocol : string;  (** async protocol registry name *)
  instance_seed : int;  (** the campaign seed: see {!instance_of} *)
  n : int;
  tokens : int;
  loss : float;  (** the cell's loss *)
  flaps : bool;  (** the cell's link flaps *)
  churn : bool;  (** the cell's churn *)
  cell_seed : int;  (** seeds the {!environment} *)
  run_seed : int;  (** the runtime seed of the trial *)
  round_limit : int;
  durability : Faults.durability;
  groups : int;  (** partition group count *)
  downtime : (int * int * int) list;  (** explicit (node, from, until) *)
  windows : (int * int) list;  (** explicit partition (from, until) *)
}
(** One trial in explicit form: the {!environment} of a cell with the
    same loss, flaps and churn, and its crash and partition plans as
    the literal spans and windows {!Faults.of_downtime} and
    {!Faults.of_windows} replay (partition sides seeded
    [cell_seed + part_off]).  {!Shrink} replays and reduces it. *)

type campaign = {
  seed : int;
  grid : grid;
  aggs : agg list;  (** per (cell, protocol), cells outer *)
  tags : ((int * string * int) * string option) list;
      (** every trial's {!classify} tag, keyed by (cell index,
          protocol, trial), in task order *)
}

val run : ?obs:Ocd_obs.t -> ?jobs:int -> seed:int -> grid -> campaign
(** Executes the campaign.  Order: cells outer, protocols (registry
    order) inner.  Every trial runs under a fresh {!Ocd_async.Monitor}
    — the monitor only observes (no coin draws, no messages), so
    enabling it does not perturb any trial outcome.

    [?obs] (default disabled) instruments every trial through
    {!Ocd_prelude.Pool.map_scoped}, with
    [prefix = "chaos/<cell>/<protocol>/"] and [pid] = cell index —
    the merged metrics render and trace stream are byte-identical for
    any [jobs].  With a probe, each trial is timed under
    [chaos/<cell>] (calls = trials {m \times} protocols, so the
    profile row reads as trials/sec). *)

val case : campaign -> int * string * int -> case
(** The explicit case of the trial at (cell index, protocol, trial):
    its probabilistic crash and partition plans flattened to spans and
    windows over the trial's round limit, which replay
    byte-identically, so {!Shrink.run_case} of the case returns the
    trial's tag in [tags]. *)

val failures : campaign -> (case * string) list
(** The campaign's failing trials, in task order, as explicit cases
    ({!case}) with their tags.  Reads the tags of the campaign's own
    runs, so it runs nothing; every returned case is shrinkable by
    {!Shrink.shrink}. *)

val report : campaign -> unit
(** Renders the aggregate table (plus its CSV mirror) to stdout. *)
