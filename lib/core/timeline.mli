(** Single-pass possession timeline over a schedule.

    Every post-hoc quantity derived from a schedule — completion times
    and makespan, progress bars, pruning — is a function of how
    per-vertex possession evolves step by step.  This module computes
    that evolution in one forward pass, mutating a single possession
    array and updating per-vertex deficit, total deficit, satisfied
    count and completion steps in O(1) per first delivery, so a whole
    pass costs O(n·m/w + moves + steps).

    A move is a first delivery iff its token is in range and its
    destination does not yet hold it; the pass decides that once for
    every consumer.  {!fold} streams the state at each step boundary,
    and {!run} keeps the end state and flags the moves themselves. *)

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
}

val fold : Instance.t -> Schedule.t -> init:'a -> f:('a -> view -> 'a) -> 'a
(** Calls [f] once per step boundary, from the initial state
    ([step = 0]) through the schedule's end ([step = length]) —
    [length + 1] calls. *)

(** {1 End state} *)

type t

val run : Instance.t -> Schedule.t -> t
(** One pass; O(n·m/w + moves + steps) time. *)

val complete : t -> bool
(** Did every vertex end with its wants satisfied? *)

val completion_times : t -> int array
(** Per-vertex earliest boundary at which [w(v) ⊆ p(v)]; 0 when
    satisfied initially, [-1] if never. *)

val final : t -> Bitset.t array
(** The possession array at the last boundary (owned by [t]; copy
    before mutating). *)

val first_deliveries : t -> Bytes.t
(** One byte per move in emission order (over {!Schedule.move_count}),
    ['\001'] for a first delivery and ['\000'] otherwise: within a
    step the first move of a [(dst, token)] counts, and a move to a
    vertex already holding the token, or with an out-of-range token,
    never does.  Owned by [t]. *)
