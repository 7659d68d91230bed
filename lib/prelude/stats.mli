(** Small summary-statistics helpers for experiment reporting. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1); 0 for count <= 1 *)
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on an empty list. *)

val summarize_ints : int list -> summary

val mean : float list -> float
val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], linear interpolation between
    order statistics.  The boundaries are exact: [p = 0.0] returns the
    minimum and [p = 1.0] the maximum (no interpolation or float-noise
    overshoot). *)
