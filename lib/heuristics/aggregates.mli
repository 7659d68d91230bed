(** Per-step global aggregate vectors shared by the knowledge-rich
    heuristics.

    The Local heuristic assumes "at every time step, the step's initial
    aggregate need and knowledge are distributed to all vertices"
    (e.g. over a side multicast tree); the Global and Bandwidth
    heuristics assume full coordination.

    Historically each heuristic recomputed these vectors from scratch
    every timestep — O(n·m) per step, the dominant cost of a round at
    large n.  {!tracked} instead computes them once and keeps them
    exact through the engine's fresh-delivery notifications
    ({!Ocd_engine.Strategy.on_deliver}), O(1) per delivery;
    {!compute} remains the from-scratch oracle the differential tests
    compare against. *)

open Ocd_core
open Ocd_prelude

type t = {
  have_count : int array;
      (** per token: number of vertices currently holding it
          ("knowledge"), the paper's rarity measure (lower = rarer) *)
  need_count : int array;
      (** per token: number of vertices wanting but lacking it ("need") *)
}

val compute : Instance.t -> Bitset.Rows.t -> t
(** From-scratch O(n·m) scan of possession, one row per vertex; the
    oracle for {!tracked}. *)

val tracked : Instance.t -> Ocd_engine.Strategy.context -> t
(** [tracked inst] is a per-run aggregate source: partially applied at
    strategy [make] time, it computes the vectors from the context's
    possession state on the first decision and registers a
    fresh-delivery listener to keep them exact thereafter.  All
    decisions of the run receive the same (mutating) [t]. *)
