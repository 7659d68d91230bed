(** The Theorem 4 adversary family.

    "Consider the situation of two maximally-separated vertices in
    which one has tokens that the other requires.  If the sender has
    many tokens that the receiver does not want, then simply sending
    out tokens in the hopes they are useful cannot speed up the
    solution beyond waiting to hear knowledge of which tokens are
    needed."

    The family is a bidirectional path of [distance + 1] vertices with
    unit capacities.  The endpoint [0] holds [decoys + 1] tokens; the
    far endpoint wants exactly one of them ([wanted]).  A prescient
    algorithm pipelines the wanted token straight down the path —
    makespan [distance] — while any online algorithm ignorant of
    [wanted] either floods (worst case [distance + decoys] steps at
    capacity 1) or waits [distance] steps for the want to propagate
    back before sending ([2·distance]).  Scaling [decoys] therefore
    defeats any fixed competitive ratio; the bench harness sweeps the
    family to show each heuristic's gap. *)

open Ocd_core

val instance : distance:int -> decoys:int -> wanted:int -> Instance.t
(** Requires [distance >= 1], [decoys >= 0],
    [0 <= wanted <= decoys]. *)

val optimal_makespan : distance:int -> int
(** = [distance]: the prescient pipeline. *)
