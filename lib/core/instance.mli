(** OCD problem instances — the §3.1 model.

    An instance is a simple weighted digraph [G = (V, E)], a token set
    [T = \[0, token_count)], and the two functions [h : V -> 2^T]
    (initial possession) and [w : V -> 2^T] (desired tokens).  Files
    are represented as sets of tokens, per the paper's unit-token
    normalisation. *)

open Ocd_prelude

type t = private {
  graph : Ocd_graph.Digraph.t;
  token_count : int;
  have : Bitset.t array;  (** [h(v)]; index = vertex *)
  want : Bitset.t array;  (** [w(v)] *)
}

val make :
  graph:Ocd_graph.Digraph.t ->
  token_count:int ->
  have:(Ocd_graph.Digraph.vertex * int list) list ->
  want:(Ocd_graph.Digraph.vertex * int list) list ->
  t
(** Builds an instance from per-vertex token lists (vertices absent
    from a list hold/want nothing).  Checks that every token is
    initially held by at least one vertex — otherwise no schedule can
    be successful — and that vertex/token ids are in range. *)

val with_graph : t -> Ocd_graph.Digraph.t -> t
(** [with_graph inst graph] is [inst] on another topology over the same
    vertices, such as one step's effective graph under link faults.
    [have] and [want] are shared with [inst], not copied, so the
    result is valid whenever [inst] is.
    @raise Invalid_argument if the vertex counts differ. *)

val vertex_count : t -> int

val holders : t -> int -> Ocd_graph.Digraph.vertex list
(** Vertices with token [t] in their initial [have] set. *)

val wanters : t -> int -> Ocd_graph.Digraph.vertex list

val deficit : t -> Ocd_graph.Digraph.vertex -> Bitset.t
(** [w(v) \ h(v)]: the tokens the vertex still needs; fresh set. *)

val total_deficit : t -> int
(** Σ_v |w(v) \ h(v)| — the §5.1 remaining-bandwidth lower bound at
    time zero. *)

val trivially_satisfied : t -> bool

val satisfiable : t -> bool
(** True when every wanted token has a holder from which the wanter is
    reachable (necessary and sufficient in this loss-free model, since
    capacities are at least 1). *)
