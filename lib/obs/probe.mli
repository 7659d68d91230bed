(** Wall-clock and allocation profiling of labelled sections.

    A probe aggregates, per label: call count, wall-clock seconds
    (monotonic-ish via [Unix.gettimeofday]) and [Gc.quick_stat] deltas
    (minor/major words allocated, minor/major collections).  It backs
    [ocd profile]'s per-phase table.

    Everything here is {e non-deterministic by nature} — wall time and
    GC behaviour vary run to run and domain to domain — which is why
    probe output is kept strictly separate from the deterministic
    {!Metrics}/{!Sink} streams: the byte-identical contract never
    covers probe rows.

    A probe may be shared across {!Ocd_prelude.Pool} worker domains
    (accumulation is mutex-protected); each {!time} call runs on one
    domain, because GC statistics are per-domain. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t label f] runs [f] inside a section, returning its result
    (exceptions propagate after the section is closed). *)

val render : ?title:string -> t -> string
(** Human-readable table: label, calls, total wall, calls/sec, per-call
    wall, allocated words and collection counts. *)
