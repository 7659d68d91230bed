(** Fixed-size domain pool for deterministic fan-out.

    [map ~jobs f xs] evaluates [f] over [xs] on up to [jobs] OCaml 5
    domains (the calling domain counts as one of them) and returns the
    results in input order — completion order never leaks into the
    output, so a computation whose tasks are individually deterministic
    produces byte-identical results for any [jobs] value.

    Workers claim input indices from one atomic counter and write each
    result into its index's slot.  With [jobs = 1] (or a single task,
    or when called from inside a pool worker) no domain is spawned and
    the map runs inline — nested [Pool] calls therefore degrade to
    sequential execution instead of oversubscribing or deadlocking.

    If one or more tasks raise, the workers still run every remaining
    task; afterwards the exception of the lowest-indexed failing task
    is re-raised in the caller (with its backtrace), again independent
    of scheduling. *)

val default_jobs : unit -> int
(** Worker count when [--jobs] is not given:
    [Domain.recommended_domain_count ()]. *)

val map : ?obs:Ocd_obs.t -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] evaluated on up to [jobs]
    domains.  When [obs] carries a {!Ocd_obs.Probe}, each worker's
    task count, busy time and allocation are folded into row
    [pool/worker-<i>] (an inline map into [pool/inline]); worker rows
    are wall-clock profiling only and are never part of the
    deterministic output contract.
    @raise Invalid_argument when [jobs < 1]. *)

val mapi :
  ?obs:Ocd_obs.t -> jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** As {!map} with the input index. *)

val map_scoped :
  obs:Ocd_obs.t ->
  jobs:int ->
  lane:(int -> 'a -> int * string) ->
  (Ocd_obs.t -> 'a -> 'b) ->
  'a list ->
  'b list
(** [map_scoped ~obs ~jobs ~lane f xs] is {!map} with each task run
    against its own {!Ocd_obs.val-child} of [obs], so worker domains share
    no registry or sink.  Once every task is done the children are
    {!Ocd_obs.val-absorb}ed into [obs] in input order, the child of the
    [i]th input [x] with [(pid, prefix) = lane i x]: the merged
    metrics and trace are byte-identical for any [jobs].  The one
    place the repository captures per-task observability. *)
