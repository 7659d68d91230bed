(** Selection helpers used throughout the heuristics. *)

val sort_by : ('a -> int) -> 'a list -> 'a list
(** Stable ascending sort by score. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if shorter). *)

val range : int -> int list
(** [range n] is [\[0; 1; ...; n-1\]]. *)

val mem_int : int -> int list -> bool
(** [mem_int x l] is [List.mem x l] on ints, by an int compare:
    [List.mem] runs the polymorphic compare on every element. *)
