(** The §5.1 heuristics by name, for the CLI, examples and bench harness. *)

val all : Ocd_engine.Strategy.t list
(** The five §5.1 heuristics, in the paper's presentation order:
    round-robin, random, local, bandwidth, global. *)

val names : string list
