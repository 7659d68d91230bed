(** Critical-path extraction and makespan attribution.

    Given a filled {!Ocd_obs.Causal} log, [Explain] walks the binding
    predecessors backward from the run's [Complete] event to the root.
    Because every causal edge satisfies [tick parent <= tick child],
    the walk tiles the interval [\[0, makespan)] with disjoint
    segments, so attributing each segment to exactly one category
    yields a decomposition whose parts sum to the makespan {e by
    construction} — there is no residual bucket and no reconciliation
    step.  The categories answer the question the §3 lower bound
    poses: of the ticks the run actually spent, how many were
    unavoidable wire time, and where did the rest go?

    {b Attribution semantics.}  Each backward edge is one segment:
    - [Deliver <- Send] splits at the message's departure tick into
      {!Queue} (serialisation wait on the outgoing arc) and
      {!Transmit} (wire latency).
    - [Restart <- Crash] is {!Crash_down}: the node was dead.
    - Every other edge (a timer wait, the idle stretch before a
      crash) is a {e wait} at the child's node [v], classified per
      tick with context [w] = the destination of the nearest
      leaf-ward [Send] in the walk: {!Partition_down} if the fault
      plan separates [v] and [w] in that tick's round, else
      {!Crash_down} if [w] is inside a crash interval recorded in the
      log, else {!Suspicion} if [v] logged a detector episode inside
      the segment, else {!Backoff} if that send was a retransmission,
      else {!Protocol_idle}.  The priority order means a retry that
      was {e forced} by a partition is charged to the partition, not
      to the protocol's timer. *)

type category =
  | Transmit  (** wire latency of critical-path messages *)
  | Queue  (** serialisation wait behind earlier traffic on the arc *)
  | Backoff  (** waiting out a retransmission timer *)
  | Suspicion  (** waiting while the failure detector deliberated *)
  | Crash_down  (** an endpoint of the next hop was crashed *)
  | Partition_down  (** the next hop crossed an active partition cut *)
  | Protocol_idle  (** the protocol simply had nothing scheduled *)

val categories : category list
(** All categories, in rendering order. *)

val category_name : category -> string

type delivery_stats = {
  fresh : int;  (** fresh (dst, token) deliveries in the log *)
  max_hops : int;  (** deepest per-delivery causal chain, in hops *)
  mean_hops : float;
}

type decomposition = {
  makespan : int;  (** ticks to completion; equals the category sum *)
  by_category : (category * int) list;
      (** every category, in {!categories} order, zeros included *)
  path_events : int;  (** events on the completion path, root included *)
  path_hops : int;  (** [Deliver] events on the completion path *)
  lower_bound : int;
      (** §3 makespan bound scaled to ticks ([rounds x pace]) *)
  deliveries : delivery_stats option;
      (** per-delivery chain statistics; [None] for schedule-derived
          decompositions *)
}

val of_causal :
  ?faults:Ocd_dynamics.Faults.t ->
  pace:int ->
  instance:Ocd_core.Instance.t ->
  Ocd_obs.Causal.t ->
  decomposition option
(** [None] when the log holds no [Complete] event (the run timed out
    or the log was disabled).  [faults] must be the plan the run
    executed under for partition attribution; omit it and
    partition-down ticks degrade to crash-down/suspicion/idle. *)

val flow_overlay : sink:Ocd_obs.Sink.t -> Ocd_obs.Causal.t -> unit
(** Emits the completion path as Chrome trace flow events (phases
    ['s']/['t']/['f'], id 1, name ["critical-path"], pid 0) so the path
    draws as connected arrows over a trace captured from the same run.
    No-op when the log has no [Complete] event. *)

val of_schedule :
  ?pace:int -> instance:Ocd_core.Instance.t -> Ocd_core.Schedule.t ->
  decomposition option
(** The synchronous analogue: reconstructs the token-dependency
    critical path of a schedule (each move's parent is the move that
    gave its source the token, or the initial state).  Move rounds are
    {!Transmit}; gap rounds where the path's source vertex was busy
    sending something else are {!Queue}; remaining gaps are
    {!Protocol_idle}.  Rounds scale by [pace] (default 1) so sync and
    async decompositions are comparable.  [None] on an empty
    schedule.

    Precondition: [sched] passed {!Ocd_core.Validate.check} against
    [instance], so every vertex and token it names is in range.  The
    walk indexes flat arrays by [(vertex, token)] and [(vertex,
    round)] and costs O(n·m + n·t/w + moves) for [t] rounds, plus the
    §5.1 bound. *)

val table : ?title:string -> decomposition -> Report.table
(** The attribution table: one row per category with ticks and share,
    plus a total row (which equals the makespan exactly). *)

val notes : decomposition -> string
(** Summary lines: makespan vs. the scaled §3 bound, the gap, path
    shape, and per-delivery chain stats when present. *)
