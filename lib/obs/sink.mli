(** Trace-event sinks.

    An instrumented run emits {!event} values — Chrome trace-event
    records (the format [chrome://tracing] and Perfetto load) — into a
    sink.  Three implementations:

    - {!null}: drops everything.  [enabled] is [false], so callers can
      (and should) skip event construction entirely — the hot path of
      an uninstrumented run allocates nothing.
    - {!memory}: appends to an in-process buffer, retrieved with
      {!events}.  The building block for deterministic capture: a
      parallel fan-out gives each task its own memory sink and merges
      them in task order, so the combined stream is byte-identical for
      any worker count.
    - {!jsonl}: streams each event as one JSON object per line into an
      [out_channel], wrapped in a JSON array ([\[] on open, [\]] on
      {!close}) so the whole file parses as standard Chrome
      trace-event JSON while remaining line-splittable.

    Timestamps are whatever clock the emitter uses — the engines and
    the async runtime use {e sim-time} (steps / ticks), which is
    deterministic; wall-clock belongs in {!Probe}, not here. *)

type value = Int of int | Float of float | String of string

type event = {
  name : string;
  ph : char;
      (** phase: 'B' begin, 'E' end, 'X' complete, 'i' instant,
          'C' counter, 's'/'t'/'f' flow start/step/end *)
  ts : int;  (** timestamp (sim-time for deterministic streams) *)
  dur : int;  (** duration of an 'X' event; ignored (use 0) otherwise *)
  id : int;  (** flow id of an 's'/'t'/'f' event; ignored (use 0) otherwise *)
  pid : int;
      (** process lane: 0 as emitted, re-stamped per task when a merged
          stream absorbs it *)
  tid : int;  (** thread lane — node/vertex id *)
  args : (string * value) list;
}

type t

val null : t
(** Drops every event; [enabled null = false]. *)

val enabled : t -> bool
(** [false] only for {!null}: the guard instrumented hot paths branch
    on before building an event. *)

val memory : unit -> t
val events : t -> event list
(** Events emitted into a {!memory} sink, in emission order; [[]] for
    other sinks. *)

val jsonl : out_channel -> t
(** Streaming sink.  Writes the opening [\[] immediately; each event
    becomes one line; {!close} writes the closing [\]] and flushes (the
    channel itself is the caller's to close).  Chrome's parser also
    accepts the file with the tail missing, so a crashed run still
    yields a loadable trace. *)

val emit : t -> event -> unit
val close : t -> unit
(** Finalise a {!jsonl} sink; no-op for {!null} and {!memory}. *)

val event_to_json : event -> string
(** One event as a compact JSON object (no trailing newline), with the
    five required trace-event fields [name], [ph], [ts], [pid], [tid]
    always present. *)
