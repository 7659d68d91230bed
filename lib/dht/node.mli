(** One Chord node as a message-driven state machine.

    A node owns O(log n) routing state — a successor list, a
    62-entry finger table, an optional predecessor — plus the
    provider-record store for the slice of the identifier circle it
    owns.  It is driven entirely through {!handle} (incoming
    {!Ocd_async.Message.dht} messages) and the periodic {!tick} loop
    started by {!start}: stabilise (probe the successor, adopt its
    predecessor when closer, merge its successor list), fix one finger
    per period by lookup, and evict suspected-dead successors
    (detector-driven repair — [env.alive] is the owner's failure
    detector).  It never touches a transport directly; [env.send]
    injects whatever the host gives it, so the same state machine runs
    under {!Ocd_async.Net} inside a protocol and under a bare
    {!Ocd_async.Sim} harness in tests and experiments.

    Lookups are iterative, Chord-style: the querier asks the
    closest-preceding node it knows, follows non-final redirects, and
    routes around silent candidates after a timeout (banning them for
    the remainder of that lookup).  O(log n) hops on a converged ring.

    Provider records are soft state: an advertiser republishes
    periodically (the host protocol's job), the owner fans each
    primary record out to its first [replication - 1] successors, and
    re-replicates to newcomers whenever its replica set changes —
    so records survive both owner crashes (a successor already holds
    the copy and has become the new owner) and successor churn.

    Fixed sizes: 8 successors, 3 copies of each record (the owner's
    included), 4 reroutes and at most 128 hops per lookup, and at
    most 64 holders per provider answer. *)

open Ocd_async

type config = {
  period : int;  (** ticks between stabilise/fix-fingers rounds *)
  lookup_timeout : int;  (** per-hop silence before rerouting *)
}

val config : ?lookup_timeout:int -> period:int -> unit -> config
(** Default [lookup_timeout = 2 * period].  Size the timeout above the
    transport's round-trip tail: a hop whose reply is merely slow gets
    rerouted (wasted traffic), though a late reply is still consumed
    if it does arrive. *)

(** Shared mutable counters, aggregated across every node of a run
    (single-threaded simulation, so plain mutation is deterministic).
    [lookups]/[hops]/[max_hops]/[failures] count {e accounted} lookups
    only — application lookups (advertise, provider queries, explicit
    {!lookup} probes), not maintenance (finger fixing, joins). *)
type stats = {
  mutable lookups : int;
  mutable hops : int;
  mutable max_hops : int;
  mutable failures : int;
  mutable stores : int;  (** provider records accepted (incl. replicas) *)
  mutable queries : int;  (** Get_providers sent *)
  mutable joins : int;  (** completed (re)joins *)
  mutable evictions : int;  (** suspected successors dropped *)
}

val fresh_stats : unit -> stats
val mean_hops : stats -> float

type env = {
  self : int;  (** own vertex id *)
  seed : int;  (** run seed — fixes the identifier geometry *)
  now : unit -> int;
  after : int -> (unit -> unit) -> unit;
  send : dst:int -> Message.dht -> unit;
  alive : int -> bool;
      (** failure detector: false = suspected.  Consulted for ring
          maintenance only (successor eviction, predecessor clearing);
          routing relies on its own per-hop timeouts instead, because
          a silence-based detector has nothing meaningful to say about
          far nodes that are rarely contacted. *)
  observe : int -> unit;
      (** called when the node adopts a newly learned peer it will
          start probing (reported successor, join target) — hosts wire
          it to {!Ocd_async.Detector.watch} so the peer's silence clock
          starts at adoption, not at detector birth.  [ignore] is fine
          for fault-free harnesses. *)
  running : unit -> bool;  (** periodic loops stop when false *)
  stats : stats;
  obs : Ocd_obs.t;
      (** observability scope ({!Ocd_obs.disabled} for bare harnesses).
          When live, the node mirrors its {!stats} increments as
          [dht/*] counters and emits a [dht/lookup] span per accounted
          lookup plus a [dht/join] instant — so [ocd profile] sees the
          control plane's overhead.  One flag load per site when off. *)
}

type init =
  | Stable of { succs : int list; pred : int option; fingers : int array }
      (** boot with known routing state (see {!converged}) *)
  | Join of { via : int list }
      (** boot empty and join through a bootstrap candidate (cycled on
          retry); how restarted incarnations re-enter the ring *)

type t

val vertex_ids : seed:int -> int -> int array
(** [vertex_ids ~seed n] is every vertex's identifier,
    [Id.of_vertex ~seed v] at index [v] for [v] in [0 .. n-1]: computed
    once per run and shared by all its nodes (one word per vertex in
    total, not per node). *)

val create : env:env -> config:config -> ids:int array -> init -> t
(** [ids] is {!vertex_ids} for [env.seed], shared across the run and
    covering every vertex the node can meet: every identifier the node
    needs — its own, its successors', its predecessor's, reported
    peers' — is an array read. *)

val start : t -> unit
(** Begin the periodic maintenance loop (and the join, if booting via
    {!Join}).  Pure request/reply service works without it. *)

val handle : t -> src:int -> Message.dht -> unit
(** Feed one incoming DHT message.  The host should record [src] with
    its failure detector {e before} calling this.

    Every message doubles as a merge candidate: if the sender is
    closer than the node's worst successor (or the list is underfull),
    it is adopted on the spot — with a [Notify] and replica repair
    when the immediate successor changes.  This is what reconciles the
    two sides of a healed partition within a bounded number of
    stabilise rounds: the first cross-cut lookup or probe re-links the
    rings, and stabilisation spreads the merged view.  On a converged
    ring the check is a no-op.

    Cross-cut contact after a heal is guaranteed, not hoped for: each
    node remembers the successors it evicted (a bounded retired list)
    and stabilise keeps one probe per period pointed at them, so even
    a split long enough to rewrite every finger to same-side owners is
    re-linked in the first post-heal period.  A retired peer that
    speaks again — or answers the probe — leaves the list. *)

val succ0 : t -> int
(** Current successor; [self] on a ring of one. *)

val ready : t -> bool
(** False while the node is still (re)joining: its routing state is
    empty, so a local lookup would vacuously answer "self".  Hosts
    should defer advertisement and provider queries until ready. *)

val lookup :
  t ->
  key:int ->
  on_done:(owner:int -> hops:int -> unit) ->
  on_fail:(unit -> unit) ->
  unit
(** Iterative routed lookup of an identifier (see {!Id.of_key}).
    [on_done] receives the owning vertex and the hop count; [on_fail]
    fires after 4 reroutes or 128 hops.
    Counted in {!stats}. *)

val advertise : t -> token:int -> unit
(** Store a [(token, self)] provider record at the key's owner.
    Fire-and-forget soft state: call again periodically. *)

val find_providers : t -> token:int -> (int list -> unit) -> unit
(** Look up the token's owner and fetch its provider records.  The
    callback receives the holders (ascending, possibly capped), or
    [[]] after all retries fail.  Retries re-run the lookup, so a
    repaired ring is picked up. *)

val providers : t -> token:int -> int list
(** This node's own stored records for [token] (capped), for the
    owner-is-self path and for tests. *)

val invariant_violations : t -> (string * string) list
(** Structural ring invariants, for the {!Ocd_async.Monitor}: each
    entry is [(rule, detail)] with rule ["dht-ring"] (successor list
    sorted by ring distance and free of self, predecessor not self,
    holder lists strictly sorted) or ["dht-ownership"] (a primary
    record left outside this node's [(pred, self]] arc for many
    consecutive checks — transient misownership while the ring
    reshapes is not a violation; the periodic misowned-record handoff
    is expected to clear it).  Call once per monitored round on ready
    nodes; the ownership streak counter advances per call. *)

val converged : ids:int array -> int array -> int -> init
(** [converged ~ids members] precomputes the fully stabilised ring over
    [members] (sorted ids, successor lists of the fixed length, exact
    fingers) and returns a function from member vertex to its
    {!Stable} init — the state the join/stabilise protocol converges
    to, used to boot epoch-0 nodes and test harnesses.  O(n log n)
    once plus O(log n) per vertex.  [ids] as in {!create}. *)

val ideal_owner : seed:int -> members:int array -> int -> int
(** The vertex that owns an identifier on the fully converged ring
    over [members] — the ground truth lookups are checked against. *)
