(** Physical underlays beneath the overlay (§6 "Realistic topologies").

    "In our work, we consider only the overlay topology, and not the
    physical links making up our logical links.  We are likely
    ignoring the reality that many of our logical links share the same
    physical link, hence their capacities are not independent.  To
    properly model this, we need to take into account physical links
    and routers, which do not participate in overlay forwarding."

    This module closes that gap: a *mapping* routes every overlay arc
    over a shortest path in a physical network (whose routers forward
    but never store or duplicate tokens), and exposes

    - the per-overlay-arc route, as the physical links it crosses, and
    - an *effective* per-step enforcement: the total tokens crossing a
      physical link in one timestep — summed over all overlay arcs
      routed through it — must not exceed the physical capacity.

    {!run} replays any overlay strategy under that shared-capacity
    constraint, dropping over-subscribed moves (congestion loss, as in
    {!Ocd_dynamics.Dynamic_engine}); the resulting schedule is valid
    for the overlay instance, and the gap between overlay-only and
    underlay-aware makespans quantifies how much the independent-
    capacity assumption flatters a protocol. *)

open Ocd_core

type t = private {
  physical : Ocd_graph.Digraph.t;
  overlay : Ocd_graph.Digraph.t;
  route : int array array;
      (** [route.(s)]: the physical links carrying the overlay arc in
          CSR slot [s] ({!Ocd_graph.Digraph.slot}), in path order, each
          named by its own CSR slot in [physical]; [[||]] when both
          ends share a host. *)
}

val build :
  physical:Ocd_graph.Digraph.t ->
  host_of:int array ->
  overlay:Ocd_graph.Digraph.t ->
  t
(** [build ~physical ~host_of ~overlay] routes each overlay arc
    [(u, v)] along a shortest hop path from [host_of.(u)] to
    [host_of.(v)] in the physical graph: the path that
    {!Ocd_graph.Paths.dijkstra}'s parent array gives, one search per
    distinct source host.
    @raise Invalid_argument when some overlay arc's endpoints are not
    physically connected, or [host_of] is out of range / wrong
    length. *)

val map_onto_transit_stub :
  Ocd_prelude.Prng.t ->
  overlay:Ocd_graph.Digraph.t ->
  unit ->
  t
(** Convenience: generate a transit-stub physical network (sized to
    fit the overlay with headroom for routers), place each overlay
    vertex on a distinct random stub host, and {!build}. *)

val max_link_stress : t -> float
(** Max over physical links of (Σ capacities of overlay arcs routed
    through it) / physical capacity.  > 1 means the overlay's nominal
    capacities cannot all be honoured simultaneously. *)

type run = {
  strategy_name : string;
  outcome : Ocd_engine.Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  dropped_moves : int;  (** moves lost to physical-link contention *)
  fresh_deliveries : int;
      (** distinct [(dst, token)] pairs delivered over the run *)
}

val run :
  t ->
  strategy:Ocd_engine.Strategy.t ->
  seed:int ->
  Instance.t ->
  run
(** {!Ocd_engine.Engine.rounds} under [Lossy] admission with [Wants]
    completion.  Move admission is first-come (order within the
    proposal): a move is delivered iff its overlay arc and every
    physical link on its path still have spare capacity this step, in
    which case it consumes one unit on each.
    @raise Invalid_argument unless the instance's arcs are exactly the
    overlay passed to {!build}. *)
