(** Unified observability scope: the value instrumented code threads
    through the engines, the async runtime, the domain pool and the
    bench harness.

    A scope bundles three channels with different determinism
    contracts:

    - {!Metrics} — counters/gauges/histograms fed from {e sim-time}
      quantities; deterministic, rendered in stable key order.
    - a trace {!Sink} — Chrome trace-event records, timestamped in
      sim-time; deterministic.
    - an optional {!Probe} — wall-clock and GC profiling; explicitly
      non-deterministic, never merged into the other two.

    {!disabled} is the default everywhere: [on] is [false], the sink
    is {!Sink.null}, the registry is {!Metrics.disabled} and there is
    no probe, so every instrumentation site reduces to one load and
    branch — no allocation on the hot path.  Instrumented code must
    guard event construction with [t.on] and probe use
    with {!probe}. *)

module Sink = Sink
module Metrics = Metrics
module Span = Span
module Probe = Probe

module Causal = Causal
(** Happens-before event log for critical-path attribution.  Not part
    of the scope record: a causal log belongs to exactly one async run
    (it is passed to {!Ocd_async}'s [Runtime.run] directly), whereas a
    scope may be shared by a whole sweep. *)

type t = {
  on : bool;
  metrics : Metrics.t;
  sink : Sink.t;
  probe : Probe.t option;
}

val disabled : t
(** The shared do-nothing scope; safe to use concurrently from any
    number of domains (nothing is ever written through it). *)

val create : ?sink:Sink.t -> ?probe:Probe.t -> unit -> t
(** A live scope with a fresh {!Metrics} registry.  [sink] defaults to
    {!Sink.null} — metrics-and-profile-only instrumentation. *)

val probe : t -> Probe.t option
(** [None] when [on] is false, even if a probe was attached. *)

val child : t -> t
(** A per-task scope for deterministic parallel capture: same [on]
    flag and probe, but a {e fresh} registry and a fresh memory sink
    (when the parent records traces).  [Ocd_prelude.Pool.map_scoped]
    runs each task against a child and {!absorb}s it. *)

val absorb : into:t -> pid:int -> prefix:string -> t -> unit
(** Merge a {!child}'s capture into the parent: memory-sink events are
    re-emitted into the parent sink with their [pid] set to [pid], and
    the child registry is {!Metrics.merge}d under [prefix].  Instrumented
    code emits every event with pid 0, so this is the only place a
    trace lane is chosen; called sequentially, in task order, it gives
    a stream that is byte-identical for any worker count. *)
