(** Growable unboxed int array.

    The topology generators accumulate edge endpoints here instead of
    in [(int * int) list]s: no per-edge boxing, and the result hands
    straight to [Digraph.of_undirected_arrays]. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit

val get : t -> int -> int
(** Raises [Invalid_argument] out of bounds. *)

val set : t -> int -> int -> unit
(** Raises [Invalid_argument] out of bounds. *)

val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Iterates the live prefix in index order. *)

val to_array : t -> int array
(** Fresh array of the [length] pushed elements. *)

val shuffle : Prng.t -> t -> unit
(** In-place Fisher–Yates; draws exactly the same rng sequence as
    [Prng.shuffle] on an array of the same length. *)

val stable_sort_by_key : int array -> t -> unit
(** [stable_sort_by_key key v] sorts the live prefix by [key.(x)]
    ascending, preserving the relative order of equal-key elements
    (same result as [List.stable_sort] on the same sequence with the
    same keys); every element must index into [key].  Reuses an internal
    scratch buffer across calls — no steady-state allocation.  The hot
    path of the rarity-ranked heuristics. *)
