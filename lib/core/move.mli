(** A move: the assignment of one token to one arc during one timestep
    (§3.1).  Bandwidth consumption of a schedule = its move count. *)

type t = { src : int; dst : int; token : int }

val pp : Format.formatter -> t -> unit
