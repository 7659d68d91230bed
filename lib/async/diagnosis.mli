(** Stall forensics: {e why} did a run time out?

    A [Timed_out] outcome alone cannot distinguish three very
    different situations: the fault processes made the instance
    transiently unsolvable (want-holders partitioned from providers),
    the protocol ran out of patience (abandoned transfers, quiescent
    nodes), or the protocol is simply buggy/slow on a network that
    stayed solvable throughout.  The chaos harness sweeps thousands of
    runs; without this taxonomy a robustness table is unreadable.

    The diagnosis is computed post-hoc from ground truth the runtime
    owns (final possession, the fault plan, the condition process), not
    from protocol beliefs.  Partition analysis samples round boundaries
    (at most 64, evenly strided) and asks, for each
    outstanding [(wanter, token)] pair, whether {e any} initial holder
    of the token could reach the wanter in that round's effective
    topology — conditions and crashed nodes applied.  Initial holders
    are sound witnesses because both durability models preserve
    initially-held content across crashes. *)

open Ocd_prelude
open Ocd_core
module Condition := Ocd_dynamics.Condition
module Faults := Ocd_dynamics.Faults

type verdict =
  | Partitioned
      (** some outstanding want was cut off from every holder while a
          partition window was active — the split network explains
          (part of) the stall.  Strictly more specific than
          [Unsatisfiable_window]: the cut is attributable to the fault
          plan's partition component, not to link conditions. *)
  | Unsatisfiable_window
      (** in at least one sampled round, some outstanding want had no
          live path from any holder — the environment explains (part
          of) the stall *)
  | Gave_up
      (** the network stayed connected for the outstanding wants, but
          the protocol abandoned transfers ([failed_jobs > 0]) or went
          quiescent before the horizon (stopped scheduling work) *)
  | Protocol_stall
      (** the network stayed connected, the protocol kept working, and
          it still missed the horizon — a protocol bug or an
          insufficient round budget *)

type t = {
  outstanding : (int * int list) list;
      (** per unsatisfied vertex, the wanted tokens still missing at
          the horizon; never empty for a timed-out run *)
  dead_at_horizon : int list;  (** nodes down in the final round *)
  failed_jobs : int;  (** transfers protocols permanently abandoned *)
  sampled_rounds : int;  (** rounds inspected by partition analysis *)
  partitioned_rounds : int;
      (** sampled rounds in which some outstanding want was cut off
          from every holder *)
  partition_cut_rounds : int;
      (** the subset of [partitioned_rounds] during which the fault
          plan's partition window was active — the evidence behind a
          [Partitioned] verdict *)
  last_partition : int option;  (** latest partitioned sampled round *)
  quiescent : bool;
      (** the simulator drained before the horizon: every node stopped
          scheduling work with wants outstanding *)
  verdict : verdict;
}

val diagnose :
  instance:Instance.t ->
  condition:Condition.t ->
  faults:Faults.t ->
  have:Bitset.t array ->
  rounds:int ->
  failed_jobs:int ->
  quiescent:bool ->
  t
(** [have] is the runtime's final possession array (losses applied);
    [rounds] the horizon in rounds. *)

val verdict_name : verdict -> string
(** ["unsat-partition"], ["unsat-window"], ["gave-up"] or
    ["protocol-stall"] — stable short tags for report cells. *)
