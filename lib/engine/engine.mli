(** The timestep simulator.

    Implements the §3.1 semantics: at each timestep the strategy
    proposes a set of simultaneous moves; the engine checks them
    against the arc-existence, set-semantics, capacity and possession
    constraints (an invalid proposal is a strategy bug and raises
    {!Strategy_error}), applies the deliveries, and repeats until all
    wants are satisfied or the run aborts.

    A run aborts as [Stalled] when no *new* token delivery happened
    for [stall_patience] consecutive steps while wants remain — every
    correct heuristic on a strongly connected instance makes progress
    well within the default patience — or as [Step_limit] at the hard
    cap.  The produced schedule is re-checked by
    {!Ocd_core.Validate} before metrics are computed, so reported
    numbers never rest on the engine's own bookkeeping. *)

open Ocd_core
exception Strategy_error of string

type outcome =
  | Completed
  | Stalled of int  (** the step at which progress ceased *)
  | Step_limit

type run = {
  strategy_name : string;
  seed : int;
  outcome : outcome;
  schedule : Schedule.t;
      (** trailing all-want-satisfied steps are not recorded *)
  metrics : Metrics.t;
      (** [metrics.complete] is false (and the makespan not meaningful)
          unless [outcome = Completed] *)
  fresh_deliveries : int;
      (** distinct [(dst, token)] pairs delivered over the run — two
          sources sending one token to one destination in the same
          step count once *)
}

(** {1 The round kernel}

    Every synchronous engine — this module's {!run},
    {!Ocd_dynamics.Dynamic_engine}, {!Ocd_underlay.Underlay} and
    {!Ocd_coding.Coding} — is {!rounds} under one of two admissions and
    one of two completion predicates.  The kernel alone owns the loop
    decide → check → admit → deliver → record, the stall and step-limit
    logic, and the final {!Ocd_core.Validate} call.

    Under either admission, a move with a token out of range, on a
    missing arc, repeating an (arc, token) pair of the same step, or
    sending a token its source does not hold raises
    {!Strategy_error}. *)

type admission =
  | Exact  (** A move over an arc's capacity is a strategy bug too. *)
  | Lossy of {
      visible : int -> Instance.t;
          (** the instance the strategy sees at a step (e.g. the
              effective topology) *)
      capacity : step:int -> src:int -> dst:int -> base:int -> int;
          (** the arc's effective capacity at [step], in
              [\[0, base\]] *)
      route : int -> int array;
          (** ids of the shared links the arc crosses ([[||]] for
              none), by the arc's CSR slot in the instance graph
              ({!Ocd_graph.Digraph.slot}) *)
      link_capacity : int array;  (** per-step capacity of each link id *)
    }
      (** First come, first served: a move is kept while its arc's
          effective capacity and every link on its route have room this
          step, and then takes one unit of each.  A refused move is
          counted in [dropped], is not delivered and is not recorded. *)

type decoder = {
  finished : unit -> bool;
  on_fresh : step:int -> dst:int -> token:int -> unit;
      (** called once per fresh (dst, token) delivery, visible at
          boundary [step] *)
}

type completion =
  | Wants  (** done when every want is satisfied *)
  | Custom of decoder
      (** done when [finished ()] holds; the schedule is then only
          checked for §3.1 validity *)

type rounds = {
  ended : outcome;
  recorded : Schedule.t;
      (** the delivered moves; trailing empty steps are not recorded *)
  delivered : int;  (** distinct [(dst, token)] pairs delivered *)
  dropped : int;  (** moves refused by a [Lossy] admission *)
}

val rounds :
  ?obs:Ocd_obs.t ->
  ?step_limit:int ->
  ?stall_patience:int ->
  admission:admission ->
  completion:completion ->
  strategy:Strategy.t ->
  seed:int ->
  Instance.t ->
  rounds
(** The strategy is built on the instance; at each step it sees
    [visible step] under [Lossy] and the instance itself under
    [Exact].

    Defaults follow from the admission, capped at 10{^6} steps, where
    [m] is the token count and [n] the vertex count:
    - [Exact]: [step_limit = m(n-1) + n + 64] (Theorem 1's m(n-1)
      steps plus slack), [stall_patience = 2m + 16];
    - [Lossy]: [step_limit = 2m(n-1) + n + 128],
      [stall_patience = 4m + 64], since lost moves and temporarily
      unreachable wants slow progress down.

    A [Completed] schedule is re-checked by
    {!Ocd_core.Validate.check_successful} under [Wants] and by
    {!Ocd_core.Validate.check} under [Custom]; a failure raises
    {!Strategy_error}.

    [obs] (default {!Ocd_obs.disabled}) attaches an observability
    scope.  Counters [engine/rounds], [engine/moves],
    [engine/fresh_deliveries], [engine/quiet_steps] and the
    [engine/moves_per_step] histogram are fed in sim-time; the trace
    sink receives one ['X'] event per step (tid 0) and per fresh
    delivery (tid = receiving vertex, ts = step); a probe times
    [engine/<strategy>/decide], [.../apply] and [.../post] (schedule
    and validation) phases in wall-clock.  Instrumentation never
    affects the run. *)

val run :
  ?obs:Ocd_obs.t ->
  ?step_limit:int ->
  ?stall_patience:int ->
  strategy:Strategy.t ->
  seed:int ->
  Instance.t ->
  run
(** {!rounds} with [Exact] admission and [Wants] completion, plus the
    schedule's metrics (timed as [engine/<strategy>/metrics] when a
    probe is attached).  Schedule and metrics are byte-identical with
    and without [obs]. *)

val completed_exn : run -> run
(** Returns the run, raising [Failure] with a diagnostic when it did
    not complete — used by benches that require success. *)
