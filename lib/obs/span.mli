(** Scoped timers over a {!Sink}: Chrome trace-event emission helpers.

    All timestamps are caller-supplied — the engines pass step numbers
    and the async runtime passes simulator ticks, keeping the emitted
    stream deterministic.  Wall-clock profiling lives in {!Probe}.

    Every helper is a no-op on a disabled sink, but callers on hot
    paths should still branch on [Sink.enabled] first to avoid
    constructing the [args] list. *)

val complete :
  Sink.t ->
  pid:int ->
  tid:int ->
  name:string ->
  ts:int ->
  dur:int ->
  ?args:(string * Sink.value) list ->
  unit ->
  unit
(** An ['X'] (complete) event: a span with an explicit duration. *)

val instant :
  Sink.t ->
  pid:int ->
  tid:int ->
  name:string ->
  ts:int ->
  ?args:(string * Sink.value) list ->
  unit ->
  unit
(** An ['i'] (instant) event — crashes, restarts, completion marks. *)

val flow :
  Sink.t ->
  pid:int ->
  tid:int ->
  name:string ->
  ts:int ->
  id:int ->
  [ `Start | `Step | `End ] ->
  unit
(** An ['s']/['t']/['f'] flow event.  Events sharing [name] and [id]
    are drawn as one arrow chain across lanes — how the critical path
    is overlaid on a run trace. *)
