(** Schedule quality metrics.

    Terminology note: §3.1 defines *bandwidth* as the number of moves
    (token–arc assignments), while the evaluation figures plot "moves"
    for what §3.2 calls the schedule length (makespan, number of
    timesteps/turns).  We use unambiguous names here and map them back
    to the paper's axes in the bench harness:
    figure "Moves"    = {!makespan},
    figure "Bandwidth" = {!bandwidth}. *)

type t = {
  makespan : int;
      (** timesteps until every want was satisfied; when [complete] is
          false this is only the last completion among the vertices
          that did finish — render it through {!makespan_cell} *)
  complete : bool;
      (** did every vertex finish?  A stalled or step-limited run
          leaves this false, and its [makespan] is not a makespan *)
  bandwidth : int;     (** total moves *)
  pruned_bandwidth : int;
      (** bandwidth after §5.1 pruning of the same schedule *)
  completion_times : int array;
      (** per-vertex earliest step at which [w(v) ⊆ p(v)]; 0 when
          satisfied initially, [-1] if never *)
}

val of_schedule : Instance.t -> Schedule.t -> t
(** Computes all metrics from one {!Timeline} pass and one {!Prune.mark}
    sweep over its first-delivery flags; the schedule is
    assumed valid (run {!Validate.check_successful} first). *)

val makespan_cell : t -> string
(** [makespan] as a table cell: the number when [complete], ["n/a"]
    otherwise (the convention unsatisfiable makespan bounds already
    use). *)

val mean_completion : t -> float
(** Mean of the defined completion times. *)
