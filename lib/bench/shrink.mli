(** Fault-schedule shrinking: from a failing chaos trial to a minimal
    replayable reproducer.

    A failing chaos cell names a seed, which explains nothing.  This
    module turns the probabilistic plans of such a trial into their
    {e explicit} form — literal crash down-spans
    ({!Ocd_dynamics.Faults.of_downtime}) and partition windows
    ({!Ocd_dynamics.Faults.of_windows}), which the plan extraction
    guarantees replay byte-identically — and then delta-debugs the
    combined event list down to a 1-minimal subset that still produces
    the {e same} failure tag.  The result round-trips through a small
    text artifact, so a reproducer found in CI replays anywhere.

    A {!case} ({!Chaos.case}) is a fully self-contained trial
    description: {!run_case} rebuilds the instance with
    {!Chaos.instance_of}, the profile and link condition with
    {!Chaos.environment}, runs the explicit fault plan and tags the
    result with {!Chaos.classify}, so a replay derives and judges a
    trial exactly as the campaign did.  {!run_case} is the single
    evaluator for every ddmin probe and the final replay. *)

module Faults := Ocd_dynamics.Faults

type case = Chaos.case = {
  protocol : string;
  instance_seed : int;
  n : int;
  tokens : int;
  loss : float;
  flaps : bool;
  churn : bool;
  cell_seed : int;
  run_seed : int;
  round_limit : int;
  durability : Faults.durability;
  groups : int;
  downtime : (int * int * int) list;
  windows : (int * int) list;
}

val run_case : case -> string option
(** Replay the case under a fresh monitor and return its
    {!Chaos.classify} tag: [None] when the trial completes with a valid
    schedule and no violations.
    @raise Invalid_argument on a case {!of_string} would reject (an
    unknown protocol, a malformed span or window). *)

val max_tests : int
(** Budget of {!run_case} probes per {!shrink} call (256): ddmin is
    quadratic in the worst case, and a reproducer that is merely small
    beats a minimal one that took an hour. *)

type shrunk = {
  minimal : case;  (** the reduced case; still fails with [tag] *)
  tag : string;  (** the preserved failure tag *)
  tests : int;  (** {!run_case} evaluations spent *)
}

val shrink : case -> (shrunk, string) result
(** Delta-debug the case's combined event list (crash spans and
    partition windows together — they interact, so they must shrink
    against each other).  Classic ddmin: try chunks, then complements,
    double granularity; a reduction counts only if the failure tag is
    unchanged.  [Error] if the case does not fail in the first
    place. *)

val to_string : case -> string
(** The replayable artifact: a line-based text format starting with
    ["ocd-chaos-repro v1"], one [key=value] line per scalar field
    (floats printed with [%.17g], so round-trips are exact), one
    [down v from until] line per crash span and [win from until] per
    partition window.  The cell seed prints as the seeds it gives the
    processes: [part_seed] always, [flap_seed] and [churn_seed] when
    the case has flaps or churn. *)

val of_string : string -> (case, string) result
(** Inverse of {!to_string}; tolerant of blank lines and surrounding
    whitespace.  [Error] unless every [key=value] line appears once
    and the input describes a case {!run_case} replays under its own
    tag: a registered protocol, [n], [tokens] and [round_limit]
    positive, [loss] in [\[0,1\]], [groups >= 2], flap and churn seeds
    of the partition seed's cell, crash spans on nodes in [\[0, n)]
    with [1 <= from < until] and no overlap per node, and windows
    with [1 <= from < until] that do not overlap. *)
