(** Deterministic metrics registry: named counters, gauges and
    fixed-bucket histograms.

    A registry belongs to one run on one domain (it is not
    thread-safe); parallel sweeps give each task its own registry and
    {!merge} them afterwards in task order.  {!snapshot} and {!render}
    emit instruments in lexicographic key order, so two registries fed
    the same deterministic run render byte-identically — the property
    the cross-[--jobs] CI diff checks.

    A {!disabled} registry accepts every operation and records
    nothing, returning shared dummy instruments; instrumented code can
    therefore register unconditionally at setup and guard only the hot
    path. *)

type t

val create : unit -> t
val disabled : t
(** Ignores every registration and observation. *)

type counter

val counter : t -> string -> counter
(** Find-or-create.  @raise Invalid_argument if the name is already
    registered as a different instrument kind. *)

val incr : ?by:int -> counter -> unit

val add : t -> string -> int -> unit
(** [add t name n] is [incr ~by:n (counter t name)] — the one-shot
    form used to mirror an already-accumulated total. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val set_int : gauge -> int -> unit

type histogram

val histogram : t -> string -> buckets:float array -> histogram
(** [buckets] are strictly increasing upper edges; an implicit
    [+inf] bucket catches the rest.  Re-registration with the same
    edges returns the existing histogram.
    @raise Invalid_argument on non-increasing edges, or on
    re-registration with different edges. *)

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  buckets : (float * int) array;
      (** (upper edge, count) per bucket, the [+inf] edge last *)
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

val snapshot : t -> (string * value) list
(** All instruments, sorted by name. *)

val render : t -> string
(** Stable text form, one instrument per line, sorted by name.  Byte
    structure depends only on the recorded values. *)

val merge : into:t -> ?prefix:string -> t -> unit
(** Fold a source registry into [into], optionally prefixing every
    key.  Counters add, gauges overwrite, histograms (same edges) add
    bucket counts and combine min/max.
    @raise Invalid_argument on kind or bucket-edge mismatch. *)
