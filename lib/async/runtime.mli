(** Run a protocol on an instance: wiring, accounting, and results.

    The runtime owns the ground truth the protocol nodes cannot see:
    the possession array, the satisfaction accounting that detects
    global completion, and the delivery log.  Nodes affect it only
    through [ctx.receive], which classifies each arriving token as
    fresh or duplicate and appends fresh ones to the schedule.

    {b Schedule emission.}  Fresh deliveries are bucketed by round
    ([tick / pace]) into an {!Ocd_core.Schedule}, so the synchronous
    toolchain — {!Ocd_core.Timeline}, {!Ocd_core.Metrics},
    {!Ocd_core.Prune} — consumes async runs unchanged.  A delivery in
    round [r] becomes visible at boundary [r + 1], matching the
    synchronous engine's convention, so lockstep runs produce
    step-identical schedules (the differential test relies on this).

    {b Crash–recovery.}  With a non-trivial [faults] plan, nodes crash
    and restart at plan-chosen round boundaries.  A crash is amnesia:
    the incarnation's handlers are discarded, its pending timers are
    disarmed, messages in flight to or from it are dropped on arrival
    (epoch check in {!Net}), and — under
    {!Ocd_dynamics.Faults.Lost_unless_source} durability — every token
    the node was not seeded with is erased, re-opening its deficit.  A
    restart installs a {e fresh} protocol node (epoch-specific PRNG
    stream, empty protocol state) and runs its [on_start] immediately,
    which doubles as the recovery handshake: every protocol's first act
    is to (re-)announce its possession.  Re-deliveries of lost tokens
    are logged as real schedule moves, so {!Ocd_core.Validate} accepts
    crash runs unchanged.

    {b Determinism.}  A run is a pure function of
    [(instance, protocol, profile, condition, faults, seed)]: the
    simulator is single-threaded, its queue breaks ties FIFO, and every
    random draw comes from a stream derived from the seed per node, per
    arc, or per incarnation.  With [faults = Faults.none] the run is
    event-identical to the pre-fault runtime — the fault machinery
    contributes no events, no draws, and no closures on the hot path
    beyond always-true liveness checks. *)

open Ocd_core

type outcome =
  | Completed
  | Timed_out  (** the round horizon elapsed with wants outstanding *)

type run = {
  protocol_name : string;
  seed : int;
  outcome : outcome;
  completion_ticks : int option;
      (** simulated time at which the last want was met *)
  rounds : int;  (** schedule length in rounds (completion or horizon) *)
  schedule : Schedule.t;  (** fresh deliveries, bucketed by round *)
  metrics : Metrics.t;
  fresh_deliveries : int;
  duplicate_deliveries : int;
      (** data arrivals for tokens already held — wasted bandwidth *)
  data_messages : int;  (** [Data] departures (drops excluded) *)
  control_messages : int;  (** control departures (drops excluded) *)
  retransmissions : int;  (** protocol-reported retries *)
  dropped_messages : int;  (** lost to the loss coin or downed links *)
  fault_dropped : int;
      (** dropped because an endpoint was down at send, or crashed
          while the message was in flight (epoch mismatch at arrival) *)
  crashes : int;  (** crash events applied *)
  restarts : int;  (** restart events applied *)
  lost_tokens : int;
      (** tokens erased by crashes under [Lost_unless_source] *)
  failed_jobs : int;
      (** transfers protocols permanently abandoned (out of retries) *)
  suspicions : int;
      (** failure-detector suspicion episodes across all nodes (see
          {!Detector.create}'s [on_suspect]) — nonzero under crash
          faults or heavy loss, 0 in a healthy lockstep run *)
  adv_duplicated : int;  (** messages the adversary delivered twice *)
  adv_reordered : int;  (** messages the adversary held back *)
  adv_corrupted : int;
      (** messages that departed but failed the receiver's checksum *)
  violations : int;
      (** invariant-monitor violations; always 0 when the monitor is
          disabled (checks never run) *)
  limit_hit : bool;
      (** the simulator discarded events beyond the horizon; [false]
          for a timed-out run means the system went quiescent early *)
  diagnosis : Diagnosis.t option;
      (** stall forensics; [Some _] iff the outcome is [Timed_out] *)
  goodput : float;  (** [fresh_deliveries / data_messages]; 0 when idle *)
  events : int;  (** simulator events processed *)
}

val default_round_limit : Instance.t -> int
(** Mirrors the synchronous engine's step budget: generous enough for
    any reasonable protocol, finite so lossy runs terminate. *)

val run :
  ?obs:Ocd_obs.t ->
  ?causal:Ocd_obs.Causal.t ->
  ?profile:Net.profile ->
  ?condition:Ocd_dynamics.Condition.t ->
  ?faults:Ocd_dynamics.Faults.t ->
  ?adversary:Net.adversary ->
  ?monitor:Monitor.t ->
  ?round_limit:int ->
  protocol:Protocol.t ->
  seed:int ->
  Instance.t ->
  run
(** Executes one simulation.  [profile] defaults to {!Net.default},
    [condition] to {!Ocd_dynamics.Condition.static}, [faults] to
    {!Ocd_dynamics.Faults.none}, [adversary] to {!Net.no_adversary},
    [monitor] to {!Monitor.disabled}.

    With a partition-carrying fault plan the transport is additionally
    wired with the plan's cross-partition cut, silencing every path —
    data, adjacent control, underlay — between separated vertices.
    [monitor] receives the runtime's online safety checks (see
    {!Monitor}); a disabled monitor costs one branch per site.  When
    both the monitor and [obs] are live, exact per-rule violation
    totals are mirrored as [monitor/<rule>] counters.

    [?obs] (default {!Ocd_obs.disabled}) instruments the run without
    perturbing it: [async/*] counters mirror the run record's totals
    into the registry, the trace sink receives sim-time events
    ([recv]/[dup] per delivery, [boot]/[crash]/[restart] per
    incarnation change with [tid] = vertex, and an [all-satisfied]
    instant at completion), and a probe — when the scope carries one —
    times every message delivery under [<protocol>/on_message] plus
    the simulator's [sim/event].  All trace timestamps are simulator
    ticks, so the emitted stream is a pure function of the run inputs.

    [?causal] (default {!Ocd_obs.Causal.disabled}) records the run's
    happens-before DAG: a [Boot] per incarnation, a [Timer] per fired
    [ctx.after] callback (parented on the activation that set it), a
    [Send]/[Deliver] pair per delivered message (see {!Net.create}),
    [Crash]/[Restart] pairs, detector [Suspicion] annotations, fresh
    (dst, token) delivery marks, and a [Complete] leaf hanging off the
    delivery that satisfied the last want.  Recording draws nothing and
    schedules nothing, so an instrumented run is event-identical to a
    bare one; disabled, every hook is one load and branch.  Feed the
    filled log to [Ocd_bench]'s [Explain] for critical-path makespan
    attribution. *)
