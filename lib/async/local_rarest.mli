(** Asynchronous local-rarest pull protocol (§5.1 "local" heuristic,
    message-passing form).

    Each round a node (a) announces its possession set to its
    out-neighbours, and (b) one tick later runs a {!Pull} round: it
    ranks the tokens it still lacks by {e neighbour-local} rarity — how
    many live in-neighbours it believes hold each token, per their
    latest announcements — and requests each token from one believed
    holder chosen at random, respecting per-arc capacity budgets.
    Holders answer requests with [Data]; non-holders stay silent and
    the request times out.

    Retry ({!Pull.t}): an unanswered request backs off exponentially
    ([pace * 2^min(attempts, 6)] ticks) and re-issues, counting a
    retransmission.  Duplicate data is suppressed by the runtime.

    Failure detection: announce traffic doubles as heartbeats.  An
    in-neighbour silent for more than four rounds is suspected dead
    ({!Detector}): it stops contributing to rarity counts and to the
    candidate pool, and any request pending against it is released
    immediately — the node re-targets another believed holder instead
    of riding the exponential backoff against a crashed peer.  A
    restarted neighbour clears its suspicion with its first announce.

    The ranking and holder choice are {!Pull.requests}, called with the
    same rarity and holder tests by {!sync_strategy}, the synchronous
    twin used by the differential test: under {!Net.lockstep} (zero
    latency, zero loss, no pacing) announcements deliver perfect
    round-start knowledge and every request is answered within its
    round, so the async run replays the synchronous engine's schedule
    move for move.  [dht-rarest] runs the same core with DHT-sourced
    rarity. *)

val protocol : unit -> Protocol.t
(** Name ["async-local"]. *)

val requests :
  counts:int array ->
  rng:Ocd_prelude.Prng.t ->
  token_count:int ->
  have:Ocd_prelude.Bitset.t ->
  eligible:(int -> bool) ->
  alive:(int -> bool) ->
  preds:Ocd_graph.Digraph.View.t ->
  known:(int -> Ocd_prelude.Bitset.t option) ->
  (int * int) list
(** One pull round, the decision both {!protocol} and {!sync_strategy}
    make: {!Pull.requests} with rarity = the number of slots [i] of
    [preds] whose belief [known i] holds the token and whose vertex
    passes [alive], and [holds token i] = [known i] holds it.

    Rarity is counted once per call, into [counts] (length
    [token_count]; one array per node, overwritten), on the sort's
    first [rarity] call, which probes [alive] once per slot with a
    belief, in slot order; later calls read the count.  A per-token
    re-scan probes the same peers in the same order on its first call.
    So with an [alive] whose verdict and side effects do not change on
    a repeat probe (a {!Detector} at one tick), the picks, the draws
    and the first probe of every peer are the same as the re-scan's. *)

val sync_strategy : seed:int -> Ocd_engine.Strategy.t
(** Synchronous strategy (name ["async-local-lockstep"]) driving the
    shared decision core from the same per-vertex streams
    ({!Protocol.node_rng}) the async nodes use, so a lockstep async run
    and an engine run agree exactly.  [seed] must equal the
    {!Runtime.run} seed; the engine-supplied rng is ignored. *)
