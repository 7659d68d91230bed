(** Edge capacity assignment.

    The paper's evaluation draws every edge weight uniformly from
    [\[3, 15\]] tokens per timestep ("chosen to capture the variety of
    real vertex connectedness"); this module centralises that policy so
    every generator and test uses the same distribution. *)

type policy =
  | Uniform of int * int  (** inclusive bounds; the paper uses [Uniform (3, 15)] *)
  | Constant of int

val paper_default : policy
(** [Uniform (3, 15)]. *)

val draw : Ocd_prelude.Prng.t -> policy -> int

val draw_array : Ocd_prelude.Prng.t -> policy -> int -> int array
(** [draw_array rng policy count] is [count] capacities drawn in index
    order, one {!draw} each — the weights of a generator's edge arrays,
    edge [k] taking element [k]. *)

val assign :
  Ocd_prelude.Prng.t ->
  policy ->
  (int * int) list ->
  (int * int * int) list
(** Attach a capacity to each undirected edge. *)
