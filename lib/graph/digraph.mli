(** Simple, capacitated directed graphs with vertices [0 .. n-1].

    This is the substrate for the OCD model of §3.1 of the paper: a
    simple weighted directed graph [G = (V, E)] whose arc weights are
    interpreted as per-timestep token capacities.  The representation is
    immutable after construction, which lets the simulator share one
    graph across many runs.

    Adjacency is stored as flat CSR: one [int array] of row offsets
    plus parallel [int array]s for destinations and capacities, with a
    mirrored predecessor side (aliased to the successor side for graphs
    built from undirected edges, halving the footprint).  [succ]/[pred]
    return a zero-copy {!view} into those arrays.

    Multi-arcs are merged at build time by summing capacities, exactly
    as the paper prescribes ("multi-arcs can be represented as a single
    arc whose capacity is the sum").  Self-loops are rejected: the model
    gives every vertex implicit infinite-capacity storage. *)

type vertex = int

type arc = { src : vertex; dst : vertex; capacity : int }

type t

type view
(** A read-only slice of one adjacency row: the neighbours of a vertex
    with the capacities of the connecting arcs, destinations ascending.
    Views borrow the graph's arrays — creating one allocates nothing. *)

module View : sig
  type nonrec t = view

  val length : view -> int

  val dst : view -> int -> vertex
  (** [dst v i] is the [i]-th neighbour (ascending order). *)

  val iter : (vertex -> int -> unit) -> view -> unit
  (** [iter f v] applies [f dst cap] to each entry in ascending order. *)

  val iteri : (int -> vertex -> int -> unit) -> view -> unit
  val fold : ('a -> vertex -> int -> 'a) -> 'a -> view -> 'a
  val exists : (vertex -> int -> bool) -> view -> bool

  val dsts : view -> vertex array
  (** Fresh array of the neighbours, ascending. *)

  val caps : view -> int array
  (** Fresh array of the capacities, aligned with {!dsts}. *)

  val caps_into : view -> int array -> unit
  (** [caps_into v out] blits the capacities into [out.(0..length v - 1)]
      without allocating; [out] may be longer than the view.
      @raise Invalid_argument if [out] is shorter. *)

  val to_array : view -> (vertex * int) array
  (** Fresh boxed copy, for tests and cold paths. *)

  val index : view -> vertex -> int
  (** [index v u] is the position [i] with [dst v i = u], or [-1] when
      [u] is not in the row.  Binary search: O(log length), no
      allocation. *)
end

val vertex_count : t -> int
val arc_count : t -> int

(** {2 Raw adjacency}

    Direct, zero-copy access to the CSR arrays for code whose inner
    loop cannot afford a call per neighbour (the engine probes millions
    of (vertex, neighbour) pairs per step; even the non-allocating
    {!View} accessors are cross-module calls there).  The arrays are
    borrowed from the graph and MUST NOT be written. *)

type rows = { row_off : int array; row_dst : int array; row_cap : int array }
(** Row [v] occupies [row_off.(v) .. row_off.(v + 1) - 1] of the
    parallel [row_dst] / [row_cap] arrays, destinations ascending. *)

val succ_rows : t -> rows
(** Out-adjacency as raw rows; read-only borrow. *)

val pred_rows : t -> rows
(** In-adjacency as raw rows; read-only borrow.  [row_dst] then holds
    arc {e sources}. *)

val of_arcs : vertex_count:int -> arc list -> t
(** Builds a graph; duplicate arcs are merged (capacities summed),
    self-loops raise [Invalid_argument], as do non-positive capacities
    and out-of-range endpoints. *)

val of_edges : vertex_count:int -> (vertex * vertex * int) list -> t
(** [of_edges ~vertex_count edges] treats each [(u, v, c)] as an
    *undirected* edge: arcs [u -> v] and [v -> u], both of capacity [c],
    are added.  This is how the paper's evaluation graphs are built. *)

val of_undirected_arrays :
  vertex_count:int -> src:int array -> dst:int array -> cap:int array -> t
(** Bulk variant of {!of_edges} for generators: edge [k] is
    [(src.(k), dst.(k), cap.(k))].  Avoids materialising a boxed edge
    list for large graphs; same validation and merge semantics. *)

val add_undirected_edges : t -> (vertex * vertex * int) list -> t
(** [add_undirected_edges g edges] is [g] with the extra undirected
    edges merged in (capacities of duplicates summed) — a linear splice
    into the existing CSR rows, not a rebuild.  Used by connectivity
    repair, where the handful of added edges never justifies re-merging
    all [m] existing arcs. *)

val capacity : t -> vertex -> vertex -> int
(** 0 when the arc is absent.  Binary search on the sorted row. *)

val slot : t -> vertex -> vertex -> int
(** [slot g u v] is the position of arc [u -> v] in {!succ_rows}'
    parallel arrays ([row_cap.(slot g u v)] is its capacity), or [-1]
    when the arc is absent.  Slots run over [0 .. arc_count g - 1], so
    per-arc state can live in flat arrays of that length.  Binary
    search on the sorted row. *)

val mem_arc : t -> vertex -> vertex -> bool

val succ : t -> vertex -> view
(** Out-neighbours with arc capacities, destinations ascending. *)

val pred : t -> vertex -> view
(** In-neighbours with arc capacities, sources ascending. *)

val in_capacity : t -> vertex -> int
(** Sum of capacities of incoming arcs (the per-step download ceiling of
    a vertex, used by the §5.1 remaining-moves bound). *)

val arcs : t -> arc list
(** All arcs, grouped by source, ascending destinations. *)

val neighbors : t -> vertex -> vertex list
(** Union of in- and out-neighbours, ascending (the vertices knowledge
    can be exchanged with under the LOCD model, where "information
    travels bidirectionally along an edge"). *)

val vertices : t -> vertex list
