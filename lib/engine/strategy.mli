(** First-class distribution strategies.

    A strategy is a name plus a factory: given the instance and a
    private random stream, the factory returns the per-timestep
    decision function, closing over whatever mutable state the
    strategy needs (round-robin cursors, caches of static graph
    data, ...).

    The decision function receives the true current possession state.
    *Online* strategies (§4/§5.1) must restrict themselves to the
    knowledge their model grants — e.g. round-robin may only look at
    its own sets, the random heuristic additionally at its neighbours'
    possession; each heuristic documents its knowledge model in its
    own interface.  The engine cannot enforce epistemic discipline
    (that is what {!Knowledge} models explicitly, for the LOCD
    analysis); it does enforce move validity. *)

open Ocd_core
open Ocd_prelude

(** {1 Per-run scratch}

    One engine round used to allocate a fresh [Bitset.full], a fresh
    missing-set diff and a fresh capacity array per vertex — tens of
    megabytes of minor-heap churn per step at n = 10^5.  The scratch
    area gives every decision function a per-run set of reusable
    buffers instead; the engine creates one per run and threads it
    through the context.  Decision functions are called sequentially,
    so a single scratch per run suffices. *)

type scratch = {
  tokens_a : Bitset.t;  (** token-capacity work set (e.g. missing) *)
  tokens_b : Bitset.t;  (** second token-capacity work set *)
  mutable budget_buf : int array;  (** backing store for {!budget} *)
  mutable elig_buf : int array;  (** backing store for {!elig} *)
  mutable cand_buf : int array;  (** backing store for {!cand} *)
  candidates : Int_vec.t;  (** per-decision candidate accumulator *)
  order : Int_vec.t;  (** per-decision ordering accumulator *)
  mutable listeners : (dst:int -> token:int -> unit) list;
      (** fresh-delivery listeners; engines invoke them via
          {!notify_deliver} *)
}

val scratch_create : token_count:int -> scratch
(** Fresh scratch for one engine run; the bitsets have capacity
    [token_count]. *)

val budget : scratch -> int -> int array
(** [budget s len] is a reusable array of length at least [len]
    (contents stale — overwrite before reading).  Grows the backing
    store on demand; only the first [len] cells are meant for use. *)

val elig : scratch -> int -> int array
(** Like {!budget}, a second independent reusable row — typically
    per-neighbour possession words cached for a candidate scan. *)

val cand : scratch -> int -> int array
(** Like {!budget}, a third independent reusable row — a flat
    candidate accumulator for inner scans where even an
    {!Ocd_prelude.Int_vec.push} call per hit is measurable. *)

val notify_deliver : scratch -> dst:int -> token:int -> unit
(** Engines call this once per {e fresh} (dst, token) delivery, at the
    moment possession is extended, so strategies that maintain
    incremental state (e.g. {!Ocd_heuristics.Aggregates}) stay exact
    without rescanning possession. *)

type context = {
  instance : Instance.t;
  have : Bitset.Rows.t;
      (** possession at the start of the current step, one row per
          vertex; read-only.  Strategies that iterate a vertex's set
          copy its row into a scratch set ({!Bitset.Rows.into}). *)
  step : int;
  rng : Prng.t;
  scratch : scratch;  (** per-run reusable buffers, see {!scratch} *)
}

val on_deliver : context -> (dst:int -> token:int -> unit) -> unit
(** Registers a fresh-delivery listener for the remainder of the run.
    The callback fires during the engine's apply phase, after the
    delivery has been added to [have]. *)

val assign_first_holder :
  context -> Ocd_graph.Digraph.View.t -> int array -> dst:int -> int ->
  Move.t list ref -> bool
(** [assign_first_holder ctx preds budget ~dst token moves] gives
    [token] to the first in-neighbour in [preds] that holds it and has
    [budget] left at its slot: takes one unit of that budget, pushes
    the move onto [moves], returns true.  False if there is none. *)

type decide = context -> Move.t list

type t = {
  name : string;
  make : Instance.t -> Prng.t -> decide;
}

val stateless : name:string -> decide -> t
(** Wraps a decision function that needs no per-run state. *)
