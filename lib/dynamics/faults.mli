(** Node-level crash–recovery and network-partition fault plans.

    {!Condition} degrades {e links}; a fault plan kills {e nodes} or
    splits the {e network}.  The difference matters for protocol
    state: a vertex behind a downed link keeps its pending requests,
    backoff clocks and beliefs, while a crashed node restarts with
    amnesia — the asynchronous runtime discards its protocol instance,
    drops its in-flight messages, and (depending on the durability
    model) wipes the tokens it had fetched.  A {e partition} is the
    correlated failure the live-streaming overlay literature treats as
    the defining robustness scenario: at a round boundary the whole
    vertex set splits into groups, every cross-group arc goes dark at
    once — overlay links and the underlay control path alike — and a
    later heal event restores them, leaving the survivors' divergent
    views to reconcile.

    A plan is a deterministic process derived from a seed — per-node
    up/down chains for crashes, one network-wide split/heal chain for
    partitions — drawn from {!Condition.chain}, the same keyed chain as
    link flaps and churn, so any query order yields the same trajectory
    and runs stay reproducible.  Plans also exist in {e explicit} form
    ({!of_downtime}, {!of_windows}): the same semantics driven by
    literal event lists, which is what lets the chaos shrinker
    materialise a failing probabilistic plan ({!downtime},
    {!windows}), delta-debug the event list, and replay any subset
    byte-identically.  A value of type {!t} carries at most one crash
    component and one partition component; {!compose} combines
    plans.  Neither form keeps state of its own beyond the chain's
    memo, so build a plan inside the domain that queries it. *)

type durability =
  | Durable
      (** crashed nodes keep every token across the restart (state on
          disk); only protocol state is lost *)
  | Lost_unless_source
      (** a restarted node is reset to its {e initial} possession set:
          origin content survives (it is the node's own), everything
          fetched from peers is lost *)

type t

val none : t
(** Every node up, no partitions, no transitions.  The default. *)

val is_none : t -> bool

val has_partition : t -> bool
(** Does the plan carry a partition component?  Lets hosts skip wiring
    the cross-partition cut predicate entirely on crash-only plans. *)

val crashes :
  seed:int ->
  ?protected:int list ->
  ?durability:durability ->
  ?recover_prob:float ->
  crash_prob:float ->
  unit ->
  t
(** Per-node two-state Markov chain over presence: an up node crashes
    at the next round boundary with probability [crash_prob]; a down
    node restarts with probability [recover_prob] (default [0.5]).
    All nodes start up.  Vertices in [protected] never crash.
    [durability] defaults to [Lost_unless_source].  Node [v] is the
    {!Condition.chain} key [(v, -2)].
    @raise Invalid_argument when a probability is outside [\[0,1\]]. *)

val of_downtime : ?durability:durability -> (int * int * int) list -> t
(** An explicit crash plan: each [(node, from, until)] span keeps
    [node] down during rounds [\[from, until)].  Spans for one node
    must be disjoint; [1 <= from < until].  The materialised form of
    a {!crashes} plan (see {!downtime}) replays identically to the
    original within the extraction horizon.  [of_downtime []] is
    {!none}.
    @raise Invalid_argument on a span with [from < 1] or
    [until <= from], or on two overlapping spans of one node. *)

val partitions :
  seed:int -> ?split_prob:float -> ?heal_prob:float -> unit -> t
(** A seed-derived partition process: one network-wide two-state chain
    over rounds — whole, or split into two sides.  A whole network
    splits at the next round boundary with probability [split_prob]
    (default 0.05); a split one heals with probability
    [heal_prob] (default 0.25).  Each window assigns every vertex a
    side by a coin keyed on the window's start round, so the grouping
    is correlated, stable for the window's lifetime, and reproducible
    from the seed alone.  The split/heal chain is the {!Condition.chain}
    key [(-1, -3)].
    @raise Invalid_argument on bad probabilities. *)

val of_windows : seed:int -> ?groups:int -> (int * int) list -> t
(** An explicit partition plan: the network is split during each
    [(from, until)] round window ([1 <= from < until], windows
    disjoint).  Side assignment uses the same [(seed, window start,
    vertex)] keying as {!partitions}, so a window list extracted from
    a seeded plan via {!windows} (with the same seed, [groups] at its
    default 2) reproduces the exact same groupings.
    [of_windows ~seed []] is {!none}.
    @raise Invalid_argument on [groups < 2], on a window with
    [from < 1] or [until <= from], or on two overlapping windows. *)

val compose : t -> t -> t
(** Merge a crash plan and a partition plan into one.
    @raise Invalid_argument when both sides carry a crash component,
    or both carry a partition component. *)

val durability : t -> durability
(** [Durable] for plans without a crash component. *)

val up : t -> round:int -> int -> bool
(** Is the node up during [round]?  Round 0 is always up. *)

val transitions : t -> node:int -> horizon:int -> (int * [ `Crash | `Restart ]) list
(** The node's state changes over rounds [1..horizon], in round order:
    [(r, `Crash)] means the node is down from round [r] (it was up in
    [r - 1]), [(r, `Restart)] the converse.  O(horizon) per node. *)

val downtime : t -> n:int -> horizon:int -> (int * int * int) list
(** The crash component materialised as explicit [(node, from, until)]
    down-spans over rounds [1..horizon] (a span still open at the
    horizon closes at [horizon + 1]), grouped by node in ascending
    node then round order.  Feeding the result to {!of_downtime}
    yields a plan with identical [up]/[transitions] behaviour within
    the horizon — the shrinker's entry point. *)

val separated : t -> round:int -> int -> int -> bool
(** Are the two vertices on different sides of an active partition
    window during [round]?  Always false without a partition
    component, for equal vertices, and outside windows. *)

val partition_active : t -> round:int -> bool
(** Is a partition window active during [round]? *)

val windows : t -> horizon:int -> (int * int) list
(** The partition component materialised as explicit [(from, until)]
    round windows over [1..horizon] (an open window closes at
    [horizon + 1]), ascending.  Round-trips through {!of_windows}
    (same seed, same [groups]) byte-identically. *)

val to_condition : t -> Condition.t
(** The link-level shadow of the plan: an arc's capacity is zeroed
    while either endpoint is down {e or} the endpoints are on
    different sides of an active partition.  Used by diagnosis to
    reason about reachability and by the synchronous engines; the
    async runtime drops a downed node's or cut arc's traffic at the
    transport layer instead. *)
