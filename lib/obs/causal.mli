(** Happens-before event log of the async runtime.

    A causal log records the run's happens-before DAG as it executes:
    every activation of the simulator (a timer firing, a message being
    delivered, a node booting or restarting) and every message
    departure becomes one event, each with a single {e binding
    predecessor} — the activation or message that made it happen.
    Because every edge [parent → child] satisfies
    [tick parent <= tick child], walking the parent chain backward from
    any event tiles the interval [\[0, tick event)] with segments whose
    lengths telescope to exactly the event's tick.  That is the
    property {!Ocd_bench}'s critical-path attribution builds on: the
    per-category decomposition of a makespan sums to the makespan by
    construction, not by reconciliation.

    The log is allocation-light and zero-cost when disabled.  Records
    are stored in fixed chunks of 1024, seven [int]s per record in one
    [int array] per chunk (field-major, so a scan of one field reads
    consecutive words); a chunk is never copied, and only a small spine
    of chunk pointers grows.  A log retains its records' 7 words per
    event, one chunk header and spine word per 1024 events, and the
    unfilled tail of its last chunk; no record is boxed.  Every
    hook site in [Sim]/[Net]/[Runtime] performs one flag load and
    branch against {!enabled} before touching the log, exactly the
    {!Ocd_obs} discipline.  A log belongs to one run on one domain; it
    is filled in simulator order, so its contents are a pure function
    of the run inputs and byte-identical across [--jobs] like every
    other deterministic capture. *)

type t

val disabled : t
(** The shared do-nothing log ([enabled] is [false]).  Never written;
    safe to share across domains. *)

val create : unit -> t
(** A live log, pre-seeded with the root event (id 0, tick 0) every
    epoch-0 boot hangs off. *)

val enabled : t -> bool
val length : t -> int

(** {1 Event kinds}

    Tags of recorded events.  [Suspicion] events are annotations (they
    never carry an activation), the rest form the DAG proper. *)

type kind =
  | Root  (** id 0: the common ancestor at tick 0 *)
  | Boot  (** a node's incarnation started (epoch in [aux]) *)
  | Timer  (** a [ctx.after] callback fired; parent = setting activation *)
  | Send  (** a message departed; parent = sending activation *)
  | Deliver  (** a message arrived; parent = its [Send] *)
  | Crash  (** parent = the node's last recorded event *)
  | Restart  (** parent = the node's [Crash] *)
  | Complete  (** the run's last want was satisfied; parent = the
                  delivering activation *)
  | Suspicion  (** detector episode annotation at this node *)

(** {1 Recording}

    Only call these on an enabled log (sites guard on {!enabled}).
    Each returns the new event's id.  [record_*] functions also update
    the per-node last-event cursor that [record_crash] uses as its
    parent. *)

val cur : t -> int
(** The current activation's event id — the parent of anything
    recorded synchronously inside it. *)

val set_cur : t -> int -> unit
(** Called at the top of every activation (timer fire, delivery,
    boot). *)

val note_retry : t -> node:int -> unit
(** One-shot marker set by the protocol immediately before a
    retransmission send; consumed (and attached as the retry flag) by
    the next send recorded {e from that node}, so a retry whose message
    is dropped in the transport never mislabels another node's
    traffic. *)

val take_retry : t -> node:int -> bool

val record_boot : t -> tick:int -> node:int -> epoch:int -> int
val record_timer : t -> tick:int -> node:int -> parent:int -> int

val record_send :
  t ->
  tick:int ->
  node:int ->
  dst:int ->
  depart:int ->
  token:int ->
  retry:bool ->
  int
(** [tick] is the send call's time, [depart] the serialisation-queue
    exit ([= tick] for control traffic); [token] is the data/request
    token or [-1].  Parent is {!cur}. *)

val record_deliver :
  t -> tick:int -> node:int -> src:int -> send:int -> token:int -> int

val record_crash : t -> tick:int -> node:int -> int
val record_restart : t -> tick:int -> node:int -> epoch:int -> int
val record_complete : t -> tick:int -> int
val record_suspicion : t -> tick:int -> node:int -> unit

val mark_fresh : t -> unit
(** Flag the current activation (a [Deliver]) as a fresh (dst, token)
    delivery — the per-delivery critical paths start from these. *)

(** {1 Reading}

    Each reader takes an event id [i] and raises
    [Invalid_argument "index out of bounds"] unless
    [0 <= i < length t]. *)

val kind : t -> int -> kind
val tick : t -> int -> int
val node : t -> int -> int
val parent : t -> int -> int
(** [-1] for the root. *)

val peer : t -> int -> int
(** [Send]: destination; [Deliver]: source; [-1] otherwise. *)

val depart : t -> int -> int
(** [Send]: departure tick (queue exit).  Unspecified otherwise. *)

val token : t -> int -> int
(** [Send]/[Deliver]: the data/request token, [-1] for other payloads
    and kinds. *)

val is_retry : t -> int -> bool
val is_fresh : t -> int -> bool
