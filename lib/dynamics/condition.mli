(** Time-varying network conditions (§6 "Changing network conditions"
    and "Arrivals and departures").

    A condition maps each timestep to an *effective capacity* for
    every arc, between 0 (link or endpoint down) and the arc's base
    capacity.  Conditions are materialised as deterministic processes
    from a seed, so dynamic runs stay reproducible.

    Built-in condition families:
    - {!static}: the base network (identity);
    - {!cross_traffic}: each (arc, step) independently loses a random
      fraction of its capacity with some probability — background
      flows competing for the links;
    - {!link_flaps}: arcs alternate between up and down phases with
      geometric phase lengths — intermittent connectivity;
    - {!churn}: whole vertices depart and return (all incident arcs at
      0 while away), the paper's arrivals/departures variant.  The
      initial holders of tokens never depart (content must survive);
      every other vertex follows its own chain, so nothing bounds how
      many are away at once.

    Link flaps, churn and the crash and partition plans of {!Faults}
    all draw from one keyed two-state chain, {!chain}. *)

type t

val effective :
  t -> step:int -> src:int -> dst:int -> base:int -> int
(** Effective capacity of arc [(src, dst)] at [step]; always in
    [\[0, base\]]. *)

val make : (step:int -> src:int -> dst:int -> base:int -> int) -> t
(** Wraps a custom effective-capacity function into a condition.  The
    function must keep its results in [\[0, base\]] and be a pure
    function of its arguments (query order must not matter), or runs
    stop being reproducible. *)

val compose : t -> t -> t
(** [compose a b] applies [a] first, then [b] to [a]'s result — two
    independent degradation processes stacked on the same arc.  A zero
    from [a] stays zero. *)

val keyed_coin : seed:int -> a:int -> b:int -> c:int -> float
(** The deterministic keyed coin every built-in condition draws from:
    hashes [(seed, a, b, c)] to a float in [\[0, 1)] through the
    SplitMix64 finaliser.  Exposed so sibling fault processes
    ({!Faults}) can derive decorrelated-but-reproducible streams with
    the same mixing. *)

val chain :
  seed:int ->
  down_prob:float ->
  up_prob:float ->
  b:int ->
  c:int ->
  step:int ->
  int
(** [chain ~seed ~down_prob ~up_prob] is a family of two-state Markov
    chains, one per key [(b, c)].  Each is up at step 0 and, at every
    later step, draws [keyed_coin ~seed ~a:step ~b ~c]: an up chain goes
    down when the coin falls below [down_prob], a down one comes back
    up when it falls below [up_prob].  Applied to a key and a step it
    returns the step the current down-run began, or [-1] while up.
    Memoised per key, so apply the partial application, not [chain]
    itself, and never share it across domains.

    The memo packs a key into one [int], so [b] and [c] must each lie
    in [\[-3, 2{^31} - 4\]]: every vertex id, and the reserved
    negative components of the churn, crash and partition keys.
    @raise Invalid_argument when a probability is outside [\[0,1\]],
    or (on application) when [b] or [c] is outside the packable
    range. *)

val static : t

val cross_traffic : seed:int -> prob:float -> severity:float -> t
(** With probability [prob] per (arc, step), capacity is scaled by
    [1 - severity] (rounded down, floor 0).  [severity] in [\[0,1\]]. *)

val link_flaps : seed:int -> down_prob:float -> up_prob:float -> t
(** Per-arc two-state Markov chain: an up link goes down next step
    with probability [down_prob]; a down link recovers with
    probability [up_prob].  All links start up.  Arc [(src, dst)] is
    the {!chain} key [(src, dst)]. *)

val churn :
  seed:int -> protected:int list -> leave_prob:float -> return_prob:float -> t
(** Per-vertex two-state Markov chain over presence; a departed vertex
    zeroes every incident arc.  Vertices in [protected] (typically the
    content sources) never leave.  Vertex [v] is the {!chain} key
    [(v, -1)]. *)

val graph_at : t -> step:int -> Ocd_graph.Digraph.t -> Ocd_graph.Digraph.t option
(** The effective topology at [step]: arcs with zero effective
    capacity removed, others at effective capacity.  [None] when every
    arc is down. *)
