(** Deterministic pseudo-random number generation.

    Every stochastic component of this repository draws from an explicit
    [Prng.t] so that experiments are reproducible from a recorded seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a
    64-bit state advanced by a Weyl sequence and finalised with a
    variant of the MurmurHash3 mixer.  It is fast, passes BigCrush, and
    supports O(1) splitting, which we use to derive independent
    per-trial and per-vertex streams. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from an arbitrary integer seed.
    Equal seeds yield equal streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  Uses rejection sampling, so the distribution is exactly
    uniform. *)

val skip_int : t -> int -> unit
(** [skip_int g bound] advances [g] exactly as [int g bound] would —
    including any rejection re-draws — but discards the value.  Hot
    loops that must consume draws to keep a stream aligned (without
    needing the results) use this: the almost-always-taken path skips
    the division that [int] pays to reduce the raw draw. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in the inclusive range [\[lo, hi\]].
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** [exponential g ~mean] draws from the exponential distribution with
    the given mean (rate [1 / mean]) by inverse transform; always
    non-negative.  Used for latency jitter in the asynchronous runtime.
    @raise Invalid_argument unless [mean > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric g p] is the number of failures before the next success
    of a Bernoulli(p) process, from a single uniform draw (inverse
    transform).  This is the skip length of the Batagelj–Brandes
    sampler the topology generators use to enumerate random edges in
    O(m) expected time.
    @raise Invalid_argument unless [p > 0]. *)

val mix : seed:int -> int -> int
(** [mix ~seed x] is a stateless seeded mixing hash: the SplitMix64
    finaliser applied to [mix64 seed ⊕ x] advanced by one golden-gamma
    Weyl step.  The result is a non-negative int uniform over
    [\[0, 2^62)]; equal [(seed, x)] pairs hash equally regardless of
    platform, worker count, or call order, which is what makes DHT
    identifiers reproducible across [--jobs].  Single-bit input changes
    flip each output bit with probability ≈ 1/2 (avalanche — checked in
    test_prelude). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniformly random element of a non-empty list. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement g k n] draws [k] distinct integers from
    [\[0, n)], in random order.  Requires [0 <= k <= n]. *)
