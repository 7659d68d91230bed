(** Dense two-phase primal simplex.

    This is the LP engine under the §3.4 integer program.  It solves

    {v minimize  c·x  subject to  A x {<=,>=,=} b,  x >= 0 v}

    with the classic tableau method: phase 1 drives artificial
    variables out to find a basic feasible solution, phase 2 optimises
    the real objective.  Bland's smallest-index rule is used
    throughout, so the algorithm cannot cycle.  Suitable for the small
    dense programs the exact OCD solvers generate (hundreds of rows
    and columns); it makes no attempt at sparse or revised-simplex
    efficiency. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : float array;  (** length = variable count *)
  relation : relation;
  rhs : float;
}

type problem = {
  var_count : int;
  objective : float array;  (** minimised; length = [var_count] *)
  constraints : constr list;
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

val minimize : problem -> outcome
(** @raise Invalid_argument on dimension mismatches. *)
