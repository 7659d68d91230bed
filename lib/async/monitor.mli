(** Runtime invariant monitor: online safety checks over a run.

    Downstream validation tells you a schedule is wrong long after the
    damage; the monitor flags the exact tick and node where a safety
    property first breaks, during the run itself.  The runtime and the
    DHT layer consult it at the few places where invariants can be
    stated cheaply:

    - {b phantom-arc}: a fresh token may only be accepted over an arc
      that exists in the overlay with positive base capacity — tokens
      never materialise out of thin air.
    - {b durability}: a restarted node's possession set under
      [Lost_unless_source] is exactly its initial set — a crash wipes
      fetched tokens, nothing more and nothing less.
    - {b false-suspicion}: under a lockstep profile with no faults, no
      conditions and no adversary, the failure detector must never
      suspect anyone.
    - {b dht-ring}: periodic structural checks on a ready DHT node —
      successor lists sorted by ring distance and free of self/dupes,
      no self-predecessor, provider holder lists strictly sorted, and
      no primary record left persistently outside its owner's arc.

    Zero-cost when disabled, by the same discipline as [Ocd_obs]: the
    {!disabled} value has [on = false], every instrumentation site
    guards on one immediate bool field, and detail strings are built
    by a closure only on actual violation. *)

type violation = {
  tick : int;  (** simulator time of the check *)
  node : int;  (** vertex the invariant is about *)
  rule : string;  (** invariant identifier, e.g. ["phantom-arc"] *)
  detail : string;  (** human-readable specifics *)
}

type t

val disabled : t
(** Never records anything; all checks are one load and one branch. *)

val create : unit -> t
(** A live monitor.  Only the first 64 violations keep their detail
    records; the total {!count} is exact regardless. *)

val enabled : t -> bool

val record : t -> tick:int -> node:int -> rule:string -> detail:string -> unit
(** Unconditionally record a violation (no-op when disabled). *)

val check :
  t ->
  tick:int ->
  node:int ->
  rule:string ->
  ok:bool ->
  detail:(unit -> string) ->
  unit
(** Record a violation when [ok] is false.  [detail] is forced only on
    violation, so check sites stay allocation-free on the happy
    path. *)

val count : t -> int
(** Total violations observed, including ones past the record cap. *)

val ok : t -> bool
(** [count m = 0] — also true for a disabled monitor. *)

val violations : t -> violation list
(** Recorded violations, oldest first, at most 64 of them. *)

val rule_counts : t -> (string * int) list
(** Exact violation totals per rule, sorted by rule name; unaffected
    by the detail-record cap.  The runtime mirrors these into the
    metrics registry as [monitor/<rule>] counters so chaos grids can
    aggregate them without re-parsing per-trial monitor output. *)
