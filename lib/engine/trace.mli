(** Post-hoc run inspection: how the aggregate deficit of a schedule
    drains over time, as a practitioner eyeballs it when debugging a
    distribution system. *)

open Ocd_core

val render : ?width:int -> Instance.t -> Schedule.t -> string
(** An ASCII progress bar per step boundary, one {!Timeline.fold}:
    {v step  3 |#############............| 52% 1043 left v} *)
