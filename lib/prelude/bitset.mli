(** Dense mutable bit sets over the universe [\[0, capacity)].

    Token sets are the hot data structure of the simulator: every vertex
    tracks which of the [m] tokens it possesses and wants, and heuristics
    repeatedly intersect, subtract and enumerate these sets.  A dense
    bitset (one [int] word per 63 elements) makes all bulk operations
    word-parallel.

    Mutation is explicit: operations suffixed [_into] or documented as
    in-place modify their first argument; all other operations are
    observers or allocate fresh sets.  Sets of different capacities must
    never be mixed ([Invalid_argument] otherwise). *)

type t

val bits_per_word : int
(** Elements per word: element [x] is bit [x mod bits_per_word] of
    word [x / bits_per_word]; {!Rows} uses the same layout. *)

val words_for : int -> int
(** [words_for capacity] is the number of words a set over
    [\[0, capacity)] occupies. *)

val create : int -> t
(** [create capacity] is the empty set over universe [\[0, capacity)]. *)

val capacity : t -> int
(** Size of the universe (not the cardinality). *)

val copy : t -> t

val assign : t -> t -> unit
(** [assign dst src] overwrites [dst] with the contents of [src]
    (same capacity required); no allocation. *)

val of_list : int -> int list -> t
(** [of_list capacity elements]. *)

val full : int -> t
(** [full capacity] contains every element of the universe. *)

val singleton : int -> int -> t
(** [singleton capacity x]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit

val fill : t -> unit
(** Sets every element of the universe: word-filled, O(capacity/63). *)

val cardinal : t -> int
(** Population count; O(capacity/63). *)

val popcount : int -> int
(** Set bits of one word (a set's word, or any int used as a mask). *)

val is_empty : t -> bool

val is_full : t -> bool
(** [is_full s] is [cardinal s = capacity s], decided word by word
    without counting and without allocating. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is true when every element of [a] is in [b]. *)

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] sets [dst := dst ∩ src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] sets [dst := dst \ src]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val iter : (int -> unit) -> t -> unit
(** Iterates elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
(** Elements in increasing order. *)

val for_all : (int -> bool) -> t -> bool

val next_member : t -> int -> int option
(** [next_member s x] is the smallest element [>= x], scanning
    cyclically is the caller's business; returns [None] when no element
    [>= x] exists. *)

(** {1 Rows}

    [n] sets of one capacity stored flat, row [v] being [words_for
    capacity] consecutive words of one [int array] in a set's bit
    layout.  The round kernel keeps possession here. *)

module Rows : sig
  type set := t
  type t

  val of_sets : int -> set array -> t
  (** [of_sets capacity sets]: one row per set, all of [capacity]. *)

  val copy : t -> t

  val stride : t -> int
  (** Words per row, [words_for capacity]. *)

  val word : t -> int -> int -> int
  (** [word r v j] is word [j] of row [v], read-only. *)

  val mem : t -> int -> int -> bool
  (** [mem r v x]: row [v] holds [x]. *)

  val add : t -> int -> int -> bool
  (** [add r v x] adds [x] to row [v]; true when it was not there. *)

  val is_empty : t -> int -> bool

  val cardinal : t -> int -> int
  (** [cardinal r v] is the population count of row [v]. *)

  val next_member : t -> int -> int -> int
  (** [next_member r v x] is the smallest element [>= x] of row [v],
      or [-1] when there is none (also when [x] is outside
      [\[0, capacity)]). *)

  val into : set -> t -> int -> unit
  (** [into s r v] overwrites [s] with row [v] (same capacity). *)

  val diff_into : set -> t -> int -> unit
  (** [diff_into s r v] sets [s := s \ row v] (same capacity). *)

  val union_into : set -> t -> int -> unit
  (** [union_into s r v] sets [s := s ∪ row v] (same capacity). *)
end
