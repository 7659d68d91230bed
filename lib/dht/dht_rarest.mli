(** Rarest-first dissemination without the omniscient oracle.

    The fourth async protocol.  Its data plane is the pull core of
    {!Ocd_async.Local_rarest}, {!Ocd_async.Pull} — the same ranking,
    holder choice under per-round in-arc budgets, exponential backoff
    and detector-driven re-targeting — but where local-rarest feeds it
    rarity read out of neighbour [Announce]s (a neighbourhood-local
    signal), dht-rarest learns who holds what from the Chord overlay
    and feeds it provider counts ([max_int] while unknown) and a holder
    test that accepts a DHT provider or an announced holder:

    - every node advertises each token it holds into the DHT (a
      [(token, holder)] record stored at the key's owner, replicated
      to the owner's successors), republished on a soft-state cadence
      and promptly on acquisition;
    - a node with missing tokens periodically looks up their provider
      sets (rate-limited, refreshed while stale), ranks the missing
      tokens by {e global} provider count — true rarest-first — and
      requests them from in-neighbour providers under the usual
      budget;
    - data still flows only along overlay arcs, so emitted schedules
      pass [Validate.check_successful]; only DHT control rides the
      underlay.

    Under the PR 4 fault model, epoch-0 nodes boot with the converged
    ring state (shared-cell pattern, like [Flood_plan]'s plan cache)
    while restarted incarnations rejoin through the source vertices;
    successor repair and advertisement re-replication keep lookups
    and provider records live across crashes and churn. *)

val protocol : ?stats:Node.stats -> unit -> Ocd_async.Protocol.t
(** Fresh protocol value (one per run — it carries the shared ring
    cell).  Pass [stats] to observe lookup/store/repair counters from
    outside the run; the same record is shared by every node. *)
