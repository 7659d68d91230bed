(** Independent checker for the §3.1 schedule validity constraints.

    Every schedule produced by the simulator, the baselines and the
    exact solvers is re-checked here before its metrics are reported,
    so a bug in a strategy cannot silently inflate results.

    Constraints checked per step [i]:
    - arcs exist: each move uses an arc of [G];
    - set semantics: no (arc, token) pair repeated within a step;
    - capacity: at most [c(u, v)] tokens on arc [(u, v)];
    - possession: a vertex only sends tokens it holds at the *start*
      of the step ([s_i(u,v) ⊆ p_i(u)]).

    Success additionally requires [w(v) ⊆ p_t(v)] for all [v]. *)

type error =
  | No_such_arc of { step : int; move : Move.t }
  | Duplicate_assignment of { step : int; move : Move.t }
  | Capacity_exceeded of {
      step : int;
      src : int;
      dst : int;
      sent : int;
      capacity : int;
    }
  | Not_possessed of { step : int; move : Move.t }
  | Unsatisfied of { vertex : int; missing : int list }

val pp_error : Format.formatter -> error -> unit

val check : Instance.t -> Schedule.t -> (unit, error) result
(** Validity only (ignores wants). *)

val check_successful : Instance.t -> Schedule.t -> (unit, error) result
(** Validity plus success. *)

val final_possessions : Instance.t -> Schedule.t -> Ocd_prelude.Bitset.t array
(** [p_t]: possession after the last step, as a fresh array the caller
    owns. *)
