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
    (accumulation is mutex-protected), but a {!section} must be
    started and stopped on the same domain — GC statistics are
    per-domain. *)

type t

val create : unit -> t

type section

val start : t -> string -> section
(** Begin a labelled section: captures the wall clock and
    [Gc.quick_stat]. *)

val stop : section -> unit
(** End the section and fold its deltas into the probe.  Stopping a
    section twice counts it twice — don't. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t label f] runs [f] inside a section, returning its result
    (exceptions propagate after the section is closed). *)

type row = {
  label : string;
  calls : int;
  wall_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

val rows : t -> row list
(** Aggregated rows, sorted by label. *)

val render : ?title:string -> t -> string
(** Human-readable table: label, calls, total wall, calls/sec, per-call
    wall, allocated words and collection counts. *)
