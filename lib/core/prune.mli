(** Post-hoc schedule pruning (§5.1).

    "Once a satisfying schedule is found, we can go back and prune any
    unnecessary moves, reducing the bandwidth consumption.  Pruning
    first removes all moves that deliver a token repeatedly to the same
    vertex, and then works back from the last move to the first,
    removing moves that deliver tokens which were never used by the
    destination vertex."

    Pass 1 keeps {!Timeline.first_deliveries}: for every (vertex,
    token) only the chronologically first delivery, and none of a token
    the vertex started with.  Pass 2 walks timesteps backwards and drops a kept delivery
    when the destination neither wants the token nor forwards it in
    any retained later move.

    Pruning preserves validity and success and never increases either
    bandwidth or makespan (trailing steps that become empty are
    dropped). *)

val mark : Instance.t -> Schedule.t -> Bytes.t -> int
(** [mark inst s keep] runs pass 2 over [keep], the pass-1 flags of [s]
    ({!Timeline.first_deliveries}), clearing in place every delivery
    that pruning drops, and returns the number of moves left flagged —
    the bandwidth of [prune inst s] without building it. *)

val prune : Instance.t -> Schedule.t -> Schedule.t
(** Both passes, the kept moves rebuilt as a schedule. *)
