open Ocd_prelude

(* Calendar queue.  A ring of [width] one-tick buckets covers the ticks
   [base, base + width); bucket [tick land mask] holds that tick's
   events as a FIFO threaded through the flat slot arrays [fns]/[next]
   (unused slots form a free list through [next]).  Events at or beyond
   [base + width] wait in the [overflow] heap, which is keyed by
   [(tick, push order)].

   Invariant: every overflow entry has tick >= base + width.  Each time
   [base] moves, the entries that fall inside the new window are moved
   into their buckets, in heap order, before anything else can be
   pushed for those ticks — so a tick's bucket lists overflow arrivals
   first, in push order, then direct pushes, in push order: global push
   order, the same tie-break a single [(tick, seq)] heap gives.

   Between events [base] equals [clock] (the tick being handled), so a
   push — clamped to [clock] — never lands below the window.  Draining
   past a [run] horizon can carry [base] ahead of [clock]; when the
   queue empties, [base] returns to [clock]. *)

(* Ring width in ticks, a power of two.  Sixteen rounds at the default
   pace of 64 ticks, which covers the transport's delays and the
   protocols' timers in the common case; ticks further out, such as
   lazily chained fault transitions, wait in the overflow heap. *)
let width = 1024
let mask = width - 1
let initial_slots = 256

let nop () = ()

type t = {
  head : int array;  (* bucket -> first slot, -1 when empty *)
  tail : int array;  (* bucket -> last slot; meaningful only when head >= 0 *)
  mutable fns : (unit -> unit) array;  (* slot -> event thunk *)
  mutable next : int array;  (* slot -> next slot in its bucket or free list *)
  mutable free : int;  (* first free slot, -1 when none *)
  mutable ring : int;  (* events in the buckets *)
  mutable base : int;  (* the ring covers [base, base + width) *)
  overflow : (unit -> unit) Pqueue.t;
  mutable clock : int;
  mutable processed : int;
  obs : Ocd_obs.t;
  depth : Ocd_obs.Metrics.histogram;
}

(* Queue-depth histogram edges: powers of two up to 4096 pending
   events; the +inf bucket catches pathological backlogs. *)
let depth_buckets = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.;
                      1024.; 2048.; 4096. |]

(* A [next] array of length [cap] whose slots [lo .. cap - 1] form a
   free list in index order. *)
let free_chain cap lo =
  let next = Array.make cap (-1) in
  for s = lo to cap - 2 do
    next.(s) <- s + 1
  done;
  next

let create ?(obs = Ocd_obs.disabled) () =
  {
    head = Array.make width (-1);
    tail = Array.make width (-1);
    fns = Array.make initial_slots nop;
    next = free_chain initial_slots 0;
    free = 0;
    ring = 0;
    base = 0;
    overflow = Pqueue.create ();
    clock = 0;
    processed = 0;
    obs;
    depth =
      Ocd_obs.Metrics.histogram obs.Ocd_obs.metrics "sim/queue_depth"
        ~buckets:depth_buckets;
  }

let now sim = sim.clock

let grow sim =
  let cap = Array.length sim.fns in
  let fns = Array.make (2 * cap) nop in
  Array.blit sim.fns 0 fns 0 cap;
  let next = free_chain (2 * cap) cap in
  Array.blit sim.next 0 next 0 cap;
  sim.fns <- fns;
  sim.next <- next;
  sim.free <- cap

(* Append [f] to the bucket of [tick], which must lie in the window. *)
let enqueue sim tick f =
  if sim.free < 0 then grow sim;
  let s = sim.free in
  sim.free <- sim.next.(s);
  sim.fns.(s) <- f;
  sim.next.(s) <- -1;
  let b = tick land mask in
  if sim.head.(b) < 0 then sim.head.(b) <- s else sim.next.(sim.tail.(b)) <- s;
  sim.tail.(b) <- s;
  sim.ring <- sim.ring + 1

(* Restore the overflow invariant after [base] moved forward. *)
let migrate sim =
  let hi = sim.base + width in
  while
    (not (Pqueue.is_empty sim.overflow))
    && Pqueue.min_priority sim.overflow < hi
  do
    match Pqueue.pop sim.overflow with
    | Some (tick, f) -> enqueue sim tick f
    | None -> ()
  done

let at sim tick f =
  let tick = if tick < sim.clock then sim.clock else tick in
  if tick - sim.base < width then enqueue sim tick f
  else Pqueue.push sim.overflow ~priority:tick f

let after sim d f = at sim (sim.clock + Int.max 0 d) f

let events_processed sim = sim.processed

let pending sim = sim.ring + Pqueue.length sim.overflow

(* Slot of the earliest pending event, with [base] moved to its tick;
   -1 when the queue is empty. *)
let rec front sim =
  if sim.ring = 0 then
    if Pqueue.is_empty sim.overflow then -1
    else begin
      sim.base <- Pqueue.min_priority sim.overflow;
      migrate sim;
      front sim
    end
  else
    let s = sim.head.(sim.base land mask) in
    if s >= 0 then s
    else begin
      sim.base <- sim.base + 1;
      migrate sim;
      front sim
    end

(* Unlink slot [s], the head of the bucket at [base], and return its
   thunk; the slot drops its reference so the closure can be freed. *)
let take sim s =
  sim.head.(sim.base land mask) <- sim.next.(s);
  let f = sim.fns.(s) in
  sim.fns.(s) <- nop;
  sim.next.(s) <- sim.free;
  sim.free <- s;
  sim.ring <- sim.ring - 1;
  f

type stop = Drained | Horizon_reached

let run ?(limit = max_int) sim =
  let probe = Ocd_obs.probe sim.obs in
  let start_processed = sim.processed in
  let discarded = ref false in
  let rec loop () =
    let s = front sim in
    if s >= 0 then begin
      let tick = sim.base in
      let f = take sim s in
      if tick <= limit then begin
        sim.clock <- tick;
        sim.processed <- sim.processed + 1;
        (* Depth after the pop, i.e. the backlog this event leaves
           behind — a deterministic sim-time quantity (the queue is
           single-threaded and FIFO-tied). *)
        if sim.obs.Ocd_obs.on then
          Ocd_obs.Metrics.observe_int sim.depth (pending sim);
        (match probe with
        | None -> f ()
        | Some p -> Ocd_obs.Probe.time p "sim/event" f);
        loop ()
      end
      else begin
        (* beyond the horizon: discard, keep draining *)
        discarded := true;
        loop ()
      end
    end
  in
  loop ();
  sim.base <- sim.clock;
  if sim.obs.Ocd_obs.on then begin
    (* Mirror the drain outcome into the registry so run/async/chaos
       renderers see it without threading the returned stop around. *)
    let reg = sim.obs.Ocd_obs.metrics in
    Ocd_obs.Metrics.add reg "sim/events_processed"
      (sim.processed - start_processed);
    Ocd_obs.Metrics.set_int
      (Ocd_obs.Metrics.gauge reg "sim/horizon_hit")
      (if !discarded then 1 else 0)
  end;
  if !discarded then Horizon_reached else Drained
