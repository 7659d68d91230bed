(** Fixed-size domain pool for deterministic fan-out.

    [map ~jobs f xs] evaluates [f] over [xs] on up to [jobs] OCaml 5
    domains (the calling domain counts as one of them) and returns the
    results in input order — completion order never leaks into the
    output, so a computation whose tasks are individually deterministic
    produces byte-identical results for any [jobs] value.

    Tasks are distributed through a channel (mutex/condition blocking
    queue) of input indices; each worker drains the channel and writes
    its result into an index-tagged slot.  With [jobs = 1] (or a single
    task, or when called from inside a pool worker) no domain is
    spawned and the map runs inline — nested [Pool] calls therefore
    degrade to sequential execution instead of oversubscribing or
    deadlocking.

    If one or more tasks raise, the workers still drain the remaining
    queue; afterwards the exception of the lowest-indexed failing task
    is re-raised in the caller (with its backtrace), again independent
    of scheduling. *)

val default_jobs : unit -> int
(** Worker count when [--jobs] is not given:
    [Domain.recommended_domain_count ()]. *)

val map : ?obs:Ocd_obs.t -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] evaluated on up to [jobs]
    domains.  When [obs] carries a {!Ocd_obs.Probe}, each worker's
    task count, busy time, channel-wait time and allocation are folded
    into rows [pool/worker-<i>] (and [pool/worker-<i>/queue-wait]);
    worker rows are wall-clock profiling only and are never part of
    the deterministic output contract.
    @raise Invalid_argument when [jobs < 1]. *)

val mapi :
  ?obs:Ocd_obs.t -> jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** As {!map} with the input index. *)
