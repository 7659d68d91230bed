(** Open-addressing hash table from [int] keys to [int] values, with
    O(1) whole-table reset.

    The engine's lossy admission counts the underlay links each step's
    moves cross and resets the counts thousands of times per run;
    [Hashtbl.clear] walks the bucket array and boxed-key tables hash
    through a polymorphic path.  This table stores keys, values and a
    per-slot generation stamp in three flat [int array]s: {!clear}
    bumps the generation, instantly invalidating every slot, and all
    operations are allocation-free once the table has grown to its
    working size.

    Absent keys read as value [0], which is the natural identity for
    the counting use ({!incr}). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a size hint (rounded up to a power of two,
    default 16).  The table grows automatically, keeping the load
    factor at or below 1/2. *)

val clear : t -> unit
(** Removes every binding in O(1). *)

val incr : t -> int -> int
(** [incr t key] adds 1 to the value bound to [key] (0 when absent)
    and returns the new value. *)

val set : t -> int -> int -> unit
(** [set t key v] binds [key] to [v], replacing any previous value. *)

val find : t -> int -> int
(** The value bound to [key], or [0] when absent. *)

val mem : t -> int -> bool

val length : t -> int
(** Number of live bindings. *)

module Key : Hashtbl.HashedType with type t = int
(** [int] keys under this table's multiplicative spread, for
    [Hashtbl.Make] tables whose values are not ints.  [Hashtbl.hash]
    would go through the polymorphic C hash on every probe. *)
