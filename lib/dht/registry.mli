(** The full protocol vocabulary: every [Ocd_async.Registry] protocol
    plus ["dht-rarest"].

    This is the registry the CLI, the chaos campaign, and the profile
    harness resolve names through; it lives here rather than in
    [Ocd_async] because {!Dht_rarest} depends on the async runtime and
    the layering only goes one way. *)

val names : string list
(** ["async-local"; "async-push"; "flood-plan"; "dht-rarest"]. *)

val find : string -> Ocd_async.Protocol.t option
(** Fresh protocol value by name. *)

val find_exn : string -> Ocd_async.Protocol.t
(** Like {!find}; an unknown name raises [Invalid_argument] listing
    the available names (see [Ocd_async.Registry.unknown]). *)
