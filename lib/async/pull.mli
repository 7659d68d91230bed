(** The rarest-first pull core (§5.1 "local" heuristic with request
    subdivision), shared by every protocol that pulls tokens from its
    in-neighbours: [async-local] ({!Local_rarest.protocol}), its
    lockstep twin ({!Local_rarest.sync_strategy}) and the DHT-backed
    [dht-rarest].  The callers differ only in where rarity and
    possession knowledge come from; ranking, holder choice and retry
    state live here once. *)

open Ocd_prelude

val requests :
  rng:Prng.t ->
  token_count:int ->
  have:Bitset.t ->
  eligible:(int -> bool) ->
  alive:(int -> bool) ->
  preds:Ocd_graph.Digraph.View.t ->
  rarity:(int -> int) ->
  holds:(int -> int -> bool) ->
  (int * int) list
(** [(holder, token)] picks for one round, in rank order.  The tokens
    missing from [have] are shuffled once with [rng], then stable-sorted
    by ascending [rarity] ([List.stable_sort] on [Int.compare] of the
    keys, the order {!Ocd_prelude.Order.sort_by} gives); each
    [eligible] token, in that order, goes to one in-neighbour slot [i]
    of [preds] drawn with {!Ocd_prelude.Prng.pick_list} among the slots
    that still have arc budget (capacity not yet spent this round),
    pass [alive u] ([u] the slot's vertex) and pass [holds token i].
    A token with no such slot is skipped.  Empty when nothing is
    missing; [rng] is then left untouched.

    Call-order contract.  [alive] is typically
    {!Detector.suspected} negated, whose first call in a silence
    episode records a suspicion (a metric and a causal-log event), and
    [rarity] may itself probe [alive]; so which of the three callbacks
    runs, and in what order, is observable and fixed:
    - [rarity] is called only as the sort's comparison key, in
      [List.stable_sort]'s comparison order, before any other callback;
    - then, per eligible token in rank order, [holds token] is applied
      once, and each slot [i] in ascending order is tested for budget,
      then [alive u], then [holds token i], each test short-circuiting
      the next.
    [eligible] has no side effects in any caller and is called once per
    ranked token. *)

type t
(** One node's retry state: per token, the holder its outstanding
    request targets, the tick from which it may be re-requested, and
    how many times it has been requested so far.  Lives for one
    incarnation, like every piece of protocol state. *)

val create : Protocol.ctx -> t
(** Empty state; requests go out through [ctx.send] and use the
    node's [pace], clock and retransmission hook. *)

val eligible : t -> int -> bool
(** May the token be requested now?  True unless a request for it is
    outstanding and its backoff deadline has not yet come. *)

val release_suspected : t -> alive:(int -> bool) -> unit
(** Drop every outstanding request whose holder fails [alive], so its
    token is eligible again at once: the node re-targets a live holder
    instead of riding out its backoff against a crashed peer.  Probes
    [alive] once per outstanding request. *)

val request : t -> holder:int -> int -> unit
(** [request t ~holder token] sends [Request token] to [holder].  Every
    attempt after the first counts a retransmission; attempt [a]
    (from 0) makes the token ineligible for [pace * 2^min(a, 6)]
    ticks.  Attempts accumulate over the incarnation, so backoff keeps
    growing across timeouts and re-targets. *)

val arrived : t -> int -> unit
(** [Data] for the token arrived: its request is no longer
    outstanding (its attempt count stays). *)
