(** Single-pass possession timeline over a schedule.

    Every post-hoc quantity this repo derives from a schedule — metrics
    (completion times, makespan), progress traces, pruning, coded
    decoding — is a function of how per-vertex possession evolves step
    by step.  Materialising that evolution as a full copy of all [n]
    vertex bitsets at every step boundary costs O(steps · n · m) time
    *and* memory, rebuilt from scratch by each consumer.

    This module makes one forward pass instead, mutating a single
    possession array and maintaining the derived counters
    incrementally: per-vertex remaining deficit, the total deficit,
    the satisfied-vertex count and per-vertex completion steps are all
    updated in O(1) per fresh delivery, so a whole pass costs
    O(n·m/w + total_moves + steps) — linear in the schedule instead of
    multiplicative in it.

    Two APIs are exposed: an event fold ({!fold}) for consumers that
    stream over step boundaries without materialising anything, and a
    materialized record ({!run} + accessors) for consumers that need
    random access to the history. *)

open Ocd_prelude

(** {1 Incremental satisfaction tracker}

    The piece of the pass the live engines share: engines already
    maintain the possession array themselves, and only need the
    satisfied/deficit accounting to stop scanning all [n] vertices
    every step. *)

module Tracker : sig
  type t

  val create : Instance.t -> t
  (** O(n · m/w) scan of the initial state. *)

  val deliver : t -> step:int -> dst:int -> token:int -> unit
  (** Record one {e fresh} delivery: the caller guarantees [dst] did
      not possess [token] before this call.  [step] is the boundary
      index at which the delivery becomes visible (for completion
      recording); O(1). *)

  val all_satisfied : t -> bool
  val satisfied : t -> int
  (** Vertices whose wants are currently met. *)

  val deficit : t -> int
  (** Σ_v |w(v) \ p(v)| under the deliveries recorded so far. *)

  val fresh_deliveries : t -> int
  (** Distinct [(dst, token)] deliveries recorded so far. *)

  val completion_times : t -> int array
  (** Per-vertex step at which the vertex became satisfied (0 when
      satisfied initially, [-1] while unsatisfied); the live array. *)
end

(** {1 Event fold} *)

type view = {
  step : int;  (** boundary index: state after [step] schedule steps *)
  have : Bitset.t array;
      (** the live possession array at this boundary — read-only, and
          only valid during the callback.  Every view of one fold
          aliases the {e same} mutable array: retaining a view (or its
          [have] field) past the callback observes the final state of
          the pass, not the boundary it was delivered at.  Copy
          ([Array.map Bitset.copy]) if a snapshot is needed. *)
  deficit : int;  (** Σ_v |w(v) \ p(v)| *)
  satisfied : int;  (** vertices with all wants met *)
  moves : int;  (** total moves in steps [0..step-1] *)
  arrivals : Move.t list;
      (** the fresh first-deliveries of step [step - 1], in schedule
          order: moves whose [(dst, token)] was not possessed at the
          previous boundary, first occurrence within the step kept.
          Empty at [step = 0].  Moves with out-of-range tokens never
          appear. *)
}

val fold : Instance.t -> Schedule.t -> init:'a -> f:('a -> view -> 'a) -> 'a
(** Calls [f] once per step boundary, from the initial state
    ([step = 0]) through the schedule's end ([step = length]) —
    [length + 1] calls. *)

(** {1 Materialized timeline} *)

type t

val run : Instance.t -> Schedule.t -> t
(** One pass; O(n·m/w + moves + steps) time, O(n + steps) memory for
    the history (the final possession adds n·m/w). *)

val length : t -> int
(** Number of schedule steps ([deficit_at] & friends accept
    [0..length]). *)

val complete : t -> bool
(** Did every vertex end with its wants satisfied? *)

val completion_times : t -> int array
(** Per-vertex earliest boundary at which [w(v) ⊆ p(v)]; 0 when
    satisfied initially, [-1] if never. *)

val makespan : t -> int option
(** Largest completion time, [None] when the schedule is incomplete. *)

val deficit_at : t -> int -> int
(** Total remaining deficit at a boundary. *)

val satisfied_at : t -> int -> int
(** Satisfied-vertex count at a boundary. *)

val fresh_deliveries : t -> int
(** Distinct [(dst, token)] deliveries over the whole schedule. *)

val final : t -> Bitset.t array
(** The possession array at the last boundary (owned by [t]; copy
    before mutating). *)
