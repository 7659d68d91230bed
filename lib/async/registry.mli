(** Name-indexed access to the async protocols, mirroring
    {!Ocd_heuristics.Registry} for strategies.

    Constructors, not values: a {!Protocol.t} may carry per-run shared
    state (see {!Flood_plan}), so the registry hands out a fresh value
    per {!find} call.

    The DHT-backed protocol lives a layer up; [Ocd_dht.Registry]
    re-exports this vocabulary extended with ["dht-rarest"], and the
    CLI resolves names through that combined registry. *)

val names : string list
(** ["async-local"; "async-push"; "flood-plan"], the CLI vocabulary. *)

val find : string -> Protocol.t option
(** Fresh protocol value by name. *)

val find_exn : string -> Protocol.t
(** Like {!find}, but an unknown name raises [Invalid_argument] with a
    message that lists the available protocol names.  Library callers
    (the chaos campaign, the experiments) reach it with names from
    their own tables; the CLI never does, since cmdliner's enum
    converter rejects a mistyped [--protocol] with its own message
    first. *)

val unknown : available:string list -> string -> string
(** [unknown ~available name] renders that same "unknown protocol …
    (available: …)" message, for registries layered on top of this
    one. *)
