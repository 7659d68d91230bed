(** Rateless-coded content distribution (§6 "Encoding").

    The paper's open problem: "it may be useful to introduce
    redundancy into the system by generating multiple sub-tokens, only
    a subset of which are necessary to reconstruct the original
    token."  This module models an idealised rateless (MDS/fountain-
    style) code at the token level: a file of [required] source blocks
    is expanded into [coded] ≥ [required] coded tokens, and a receiver
    reconstructs the file once it holds *any* [required] of them.

    Completion is therefore no longer [w(v) ⊆ p(v)] but a per-group
    counting condition, so {!run} drives the engine's round kernel
    ({!Ocd_engine.Engine.rounds}) with the §3.1 checks of the static
    engine and a custom completion predicate fed per fresh delivery.
    The schedules it records are §3.1-valid for the underlying
    instance (validated on completion); only the termination condition
    differs.

    The benefit of coding in the loss-free OCD model is the classic
    last-block effect: with [coded = required] (no redundancy) a
    receiver must chase every specific missing token through the
    capacity constraints, while redundancy lets any surplus token
    finish the download.  The bench harness quantifies this. *)

open Ocd_core
open Ocd_prelude

type group = {
  group_id : int;
  tokens : Bitset.t;     (** the coded tokens of this file *)
  required : int;        (** how many suffice to decode *)
  receivers : int list;
}

type t = {
  instance : Instance.t;
      (** wants contain the full coded set of each receiver's group —
          the most any receiver could usefully pull *)
  groups : group list;
}

val single_file :
  Prng.t ->
  graph:Ocd_graph.Digraph.t ->
  required:int ->
  coded:int ->
  ?source:int ->
  unit ->
  t
(** One file of [required] source blocks coded into [coded] tokens
    held by the source; every other vertex is a receiver. *)

val decoded : t -> Bitset.t array -> int -> bool
(** [decoded t have v]: has vertex [v] decoded every group it belongs
    to (vacuously true for non-receivers)? *)

val all_decoded : t -> Bitset.t array -> bool

type run = {
  strategy_name : string;
  outcome : Ocd_engine.Engine.outcome;
  schedule : Schedule.t;
  makespan : int;
  bandwidth : int;
  completion_times : int array;  (** first step each vertex decoded; -1 never *)
}

val run :
  strategy:Ocd_engine.Strategy.t ->
  seed:int ->
  t ->
  run
(** {!Ocd_engine.Engine.rounds} under [Exact] admission, completing
    when every receiver has decoded (or aborting with the exact
    defaults).  The strategy sees the underlying instance; any §5.1
    heuristic works unmodified. *)
