(** Per-node heartbeat/timeout failure detector.

    Each protocol node owns one detector over the peers it depends on
    (providers it pulls from, receivers it pushes to).  Suspicion is
    purely local and unreliable in the classic sense: a peer is
    {e suspected} once nothing has been heard from it for [timeout]
    ticks.  There is no separate heartbeat message — the periodic
    traffic every protocol already emits (announcements, state floods,
    acks) doubles as the liveness signal, so the detector costs no
    bandwidth; protocols call {!heard} from their message handler and
    consult {!suspected} when choosing peers.

    Suspicion is self-healing: any later message from the peer (e.g.
    the re-announce a restarted node sends from [on_start]) clears it.
    False suspicion of a slow-but-live peer merely redirects requests,
    which the peer's next message undoes — detectors never exclude a
    peer permanently.

    Creation counts as contact: a peer is only suspected after a full
    [timeout] of silence from the detector's birth, so nodes do not
    suspect the whole world at tick 0.

    The contact table is sparse (hashed on peer id), so a detector
    costs memory proportional to the peers actually heard from, not to
    the vertex count — a DHT node tracking O(log n) fingers out of a
    10^4-node ring pays for just those fingers. *)

type t

val create :
  ?on_suspect:(int -> unit) -> now:(unit -> int) -> timeout:int -> unit -> t
(** [create ~now ~timeout ()] tracks any peer it is asked about; [now]
    is the owner's clock (typically [ctx.now]).  [on_suspect] is an
    observability hook fired the first time each silence episode of a
    peer is observed by {!suspected} (protocols wire it to
    [ctx.note_suspicion]); it is re-armed by {!heard} and never
    changes what {!suspected} returns.
    @raise Invalid_argument unless [timeout > 0]. *)

val heard : t -> int -> unit
(** Record a sign of life from the peer (any received message). *)

val watch : t -> int -> unit
(** Begin expecting contact from a never-heard peer: counts as a sign
    of life now, so the timeout measures silence since observation
    began.  A no-op for peers already heard from — real contact wins.
    Used when adopting a newly learned peer (e.g. a reported DHT
    successor) that has had no chance to speak yet. *)

val suspected : t -> int -> bool
(** Has the peer been silent for more than [timeout] ticks? *)
