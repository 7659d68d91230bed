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

val sync_strategy : seed:int -> Ocd_engine.Strategy.t
(** Synchronous strategy (name ["async-local-lockstep"]) driving the
    shared decision core from the same per-vertex streams
    ({!Protocol.node_rng}) the async nodes use, so a lockstep async run
    and an engine run agree exactly.  [seed] must equal the
    {!Runtime.run} seed; the engine-supplied rng is ignored. *)
