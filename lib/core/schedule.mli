(** Distribution schedules (§3.1): a sequence of timesteps, each a set
    of simultaneous moves.

    The functions [s_i : E -> 2^T] of the paper are represented as the
    moves of step [i]; within a step the (arc, token) pairs must be
    distinct (set semantics), which {!Validate.check} enforces.

    Internally a schedule is a packed CSR structure (flat src/dst/token
    arrays plus step offsets), so engines can build million-move
    schedules without per-move boxing.  Every value is built through
    {!Builder} and is immutable. *)

type t

val empty : t
val of_steps : Move.t list list -> t

val steps : t -> Move.t list list
(** Steps in temporal order (materialised; prefer {!iter_step} or
    {!iter_moves} in hot paths). *)

val length : t -> int
(** Number of timesteps ([t] in the paper); trailing empty steps count. *)

val move_count : t -> int
(** Total bandwidth consumption. *)

val step : t -> int -> Move.t list
(** Moves of step [i] (empty when out of range); O(moves of step i). *)

val step_move_count : t -> int -> int
(** Number of moves in step [i] (0 when out of range); O(1). *)

val iter_step : t -> int -> (src:int -> dst:int -> token:int -> unit) -> unit
(** Iterates the moves of step [i] in emission order without
    materialising [Move.t] records. *)

val drop_trailing_empty : t -> t
(** Removes empty steps at the tail (pruning can empty final steps);
    O(trailing empties), shares the underlying move storage. *)

val iter_moves : t -> (step:int -> Move.t -> unit) -> unit

(** Mutable accumulator, the one way a schedule is built.  Push the
    moves of each step with {!Builder.push_move}, close the step with
    {!Builder.end_step}, and finish with {!Builder.to_schedule}. *)
module Builder : sig
  type schedule = t
  type t

  val create : ?steps_hint:int -> ?moves_hint:int -> unit -> t
  val push_move : t -> src:int -> dst:int -> token:int -> unit
  val end_step : t -> unit

  val to_schedule : t -> schedule
  (** The steps closed so far; later pushes do not change it. *)
end
