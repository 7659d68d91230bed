(** Deterministic discrete-event simulator.

    A thin scheduling core: events are thunks keyed by an integer tick
    and drained in [(tick, insertion)] order.  Because ties break FIFO
    and the runtime is single-threaded, a simulation is a pure function
    of its seed and initial events — re-running it yields the identical
    trace.

    The queue is a calendar queue: a fixed ring of one-tick buckets
    covers the 1024 ticks starting at the current one, each bucket a FIFO
    of the events scheduled for its tick: scheduling an event costs
    O(1), popping one O(1) plus the empty ticks it skips, and neither
    sifts a heap.  Events scheduled further out
    wait in an overflow {!Ocd_prelude.Pqueue} and move into their
    bucket, in schedule order, as soon as the ring's window reaches
    their tick — before anything else can be scheduled for it — so
    same-tick events always run in the order they were scheduled.

    Events scheduled in the past (a delay of zero while handling the
    current tick) run later in the same tick, after everything already
    queued for it. *)

type t

val create : ?obs:Ocd_obs.t -> unit -> t
(** [?obs] (default {!Ocd_obs.disabled}) instruments the drain loop:
    a [sim/queue_depth] histogram records the backlog left after each
    pop (a deterministic sim-time quantity), and when the scope
    carries a probe every event thunk is timed under the [sim/event]
    label.  With the disabled scope the loop pays one flag test per
    event. *)

val now : t -> int
(** Current tick; 0 before the first event runs. *)

val at : t -> int -> (unit -> unit) -> unit
(** [at sim tick f] schedules [f] for absolute time [tick].  Ticks in
    the past are clamped to [now sim]. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after sim d f] schedules [f] at [now sim + max 0 d]. *)

val events_processed : t -> int
(** Total events run so far — a cheap progress/cost counter. *)

type stop =
  | Drained  (** the queue emptied naturally (quiescence) *)
  | Horizon_reached
      (** at least one event was discarded past the limit — the
          simulation was cut short, not finished *)

val run : ?limit:int -> t -> stop
(** Drain the queue, advancing [now] monotonically, until it is empty
    or [now] would exceed [limit] (default [max_int]).  Events beyond
    the horizon are discarded, so [run] always terminates when event
    chains are time-bounded.  The returned {!stop} says whether the
    horizon actually cut anything: [Drained] at the limit is genuine
    quiescence (every node stopped scheduling work), which the runtime
    distinguishes from a timeout with events still pending.

    When the simulator carries a live scope, the outcome is also
    mirrored into the registry: a [sim/events_processed] counter (the
    events this drain ran) and a [sim/horizon_hit] gauge (1 when the
    horizon cut something, 0 otherwise) — so the run/async/chaos
    metric renders expose drain cost and truncation uniformly. *)
