(** Name → strategy lookup for the CLI, examples and bench harness. *)

val all : Ocd_engine.Strategy.t list
(** The five §5.1 heuristics, in the paper's presentation order:
    round-robin, random, local, bandwidth, global. *)

val find : string -> Ocd_engine.Strategy.t option

val names : string list
