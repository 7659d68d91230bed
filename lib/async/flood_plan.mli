(** Flood-then-plan protocol: the asynchronous form of
    {!Ocd_engine.Flood_optimal} (§4.2's diameter-additive scheme).

    Phase 1 — knowledge flood.  Nodes gossip provenance sets ([State]
    messages naming the vertices whose initial state they know) to all
    neighbours each round, exactly the {!Ocd_engine.Knowledge} process
    in message-passing form.  The flood quiesces per link once both
    endpoints have announced complete knowledge.

    Phase 2 — planned execution.  A node whose provenance set becomes
    full can reconstruct the entire instance, so every node computes
    the {e same} plan: a synchronous offline schedule (the
    global-greedy planner seeded from the shared run seed, one private
    function that {!sync_strategy} calls too).  Each node
    executes its own sends of plan step [i] at round [K + i], where
    [K = Knowledge.steps_to_complete] is the flood's nominal finish —
    the async analogue of Flood_optimal's delayed replay.  Nodes whose
    knowledge completed late (loss) enqueue overdue steps immediately
    and rely on the transport's pacing.

    Reliability: every planned [Data] is acknowledged; an unacked send
    retries after [2 * pace] ticks, at most 8 attempts,
    each retry counting a retransmission — exhausting the attempts
    abandons the move and reports it through [ctx.give_up].  A planned
    move whose token has not yet arrived at the sender is deferred to
    the next round.

    Crash recovery.  A restarted node re-floods from scratch; its
    partial [State] tells previously-quiesced neighbours to resume
    flooding (the recovery handshake), and re-enqueueing its plan
    cursor from round 0 replays its assigned sends (duplicates are
    acked away).  The destination side is covered by a {e fallback
    pull}: once a wanted token is 4 rounds overdue against the plan —
    its assigned sender crashed, or the token was lost in our own crash
    after its slot passed — the node requests it
    directly, rotating through in-neighbours and preferring peers its
    {!Detector} still trusts.  Any holder answers a [Request] with
    [Data].  The fallback draws no randomness and never triggers in a
    lockstep no-fault run. *)

val protocol : unit -> Protocol.t
(** Name ["flood-plan"].  The returned value caches the shared plan
    across this run's nodes — use a fresh value per run. *)

val sync_strategy : seed:int -> Ocd_engine.Strategy.t
(** The synchronous twin (name ["flood-plan-lockstep"]):
    {!Ocd_engine.Flood_optimal.strategy} over the protocol's own
    planner, so it waits out the same knowledge delay and replays the
    same plan.  Under {!Net.lockstep} a [flood-plan] run with the same
    [seed] delivers the same moves in the same steps, with no
    retransmissions or duplicates; the differential test pins this.
    [seed] must equal the {!Runtime.run} seed; the engine-supplied rng
    is ignored. *)
