(** The paper's figures and the extension experiments documented in
    EXPERIMENTS.md, as two name tables that [ocd figure] and
    [ocd experiment] enumerate.

    Every entry prints its data through {!Report} (aligned table + CSV
    mirror).  [full] switches the figure 2–6 sweeps from the quick
    default to the paper's full parameters (graphs up to 1000 vertices,
    200-token file, 3 trials) and [graph-scale] to 10^6 vertices; the
    quick mode keeps the same shape at a fraction of the runtime.
    Entries without a sweep ignore it.

    [jobs] fans the sweep-based entries over that many OCaml domains
    via {!Ocd_prelude.Pool}; every experiment derives its randomness
    from explicit seeds, so output is byte-identical for any [jobs]
    value. *)

val figures : (string * (full:bool -> jobs:int -> unit)) list
(** Figures ["1"] .. ["7"] of the paper's evaluation. *)

val experiments : (string * (full:bool -> jobs:int -> unit)) list
(** The deterministic extensions, then the machine-dependent scale
    curves [graph-scale] and [engine-scale], then [all]: every figure
    followed by every deterministic extension, in table order. *)
