(** Mutable binary min-heap keyed by integer priorities.

    Used by Dijkstra/Prim-style graph algorithms and as the overflow
    heap of the simulator's calendar queue ({!Ocd_async.Sim}), which
    holds only events scheduled beyond the calendar's window; the
    simulator's own per-tick buckets are not a [Pqueue].
    Equal-priority entries drain in insertion order: every push is
    stamped with an internal sequence counter and the heap orders by
    [(priority, sequence)], so ties are deterministic FIFO rather than
    arbitrary.  The simulator relies on this when it moves overflow
    entries into the calendar (same-tick events keep their schedule
    order), and Dijkstra/Prim callers get reproducible tie-breaks for
    free.

    Stale entries are tolerated: callers following the "lazy deletion"
    idiom should check whether a popped element is still relevant. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> priority:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum-priority entry; among entries of
    equal priority, the earliest-pushed one. *)

val min_priority : 'a t -> int
(** Priority of the entry {!pop} would return, without allocating.
    @raise Invalid_argument on an empty queue. *)
