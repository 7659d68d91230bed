(* Records live in fixed chunks of [chunk_len] = 1024 records, seven
   ints per record, in one [int array] of 7168 words per chunk.  A
   chunk that size is allocated straight into the major heap and is
   never copied: a record is written once (only [mark_fresh] touches it
   again), and only the spine of chunk pointers grows by doubling.  An
   array doubled as the log grows would instead re-allocate and copy
   every record in the major heap at each doubling.  Retained words per
   event: the record's 7, plus one chunk header and one spine word per
   1024 records, plus the unfilled tail of the last chunk — at most
   7 x 1023 words per log.  Ocd_prelude is no building block here: it
   depends on ocd_obs (Pool is instrumented). *)

type kind =
  | Root
  | Boot
  | Timer
  | Send
  | Deliver
  | Crash
  | Restart
  | Complete
  | Suspicion

(* kind word layout: low 4 bits = tag, bit 4 = retry, bit 5 = fresh *)
let tag_root = 0
let tag_boot = 1
let tag_timer = 2
let tag_send = 3
let tag_deliver = 4
let tag_crash = 5
let tag_restart = 6
let tag_complete = 7
let tag_suspicion = 8
let flag_retry = 16
let flag_fresh = 32

let chunk_bits = 10
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

(* A chunk is field-major: field [f] of the chunk's [j]-th record sits
   at [f + j], where [f] is one of these column offsets, so a scan of
   one field reads consecutive words. *)
let width = 7
let f_tick = 0
let f_node = chunk_len
let f_kind = 2 * chunk_len
let f_parent = 3 * chunk_len
let f_aux = 4 * chunk_len  (* Send: depart; Boot/Restart: epoch *)
let f_peer = 5 * chunk_len  (* Send: dst; Deliver: src *)
let f_token = 6 * chunk_len

type t = {
  on : bool;
  mutable n : int;
  mutable chunks : int array array;  (* spine; slots past the last chunk hold [||] *)
  mutable cur : int;
  mutable retry_node : int;  (* pending-retry marker, -1 when clear *)
  mutable last_of : int array;  (* per-node last recorded event id *)
}

let disabled =
  { on = false; n = 0; chunks = [||]; cur = -1; retry_node = -1; last_of = [||] }

(* The chunk record [i] is written into: chunk [i lsr chunk_bits],
   allocated when [i] is its first record. *)
let chunk_for_write t i =
  let c = i lsr chunk_bits in
  if i land chunk_mask <> 0 then Array.unsafe_get t.chunks c
  else begin
    if c = Array.length t.chunks then begin
      let spine = Array.make (Int.max 8 (2 * c)) [||] in
      Array.blit t.chunks 0 spine 0 c;
      t.chunks <- spine
    end;
    let a = Array.make (width * chunk_len) 0 in
    t.chunks.(c) <- a;
    a
  end

let push t ~tick ~node ~kind ~parent ~aux ~peer ~token =
  let i = t.n in
  let a = chunk_for_write t i in
  let b = i land chunk_mask in
  Array.unsafe_set a (b + f_tick) tick;
  Array.unsafe_set a (b + f_node) node;
  Array.unsafe_set a (b + f_kind) kind;
  Array.unsafe_set a (b + f_parent) parent;
  Array.unsafe_set a (b + f_aux) aux;
  Array.unsafe_set a (b + f_peer) peer;
  Array.unsafe_set a (b + f_token) token;
  t.n <- i + 1;
  if node >= 0 then begin
    if node >= Array.length t.last_of then begin
      let cap = Int.max 64 ((node + 1) * 2) in
      let a = Array.make cap (-1) in
      Array.blit t.last_of 0 a 0 (Array.length t.last_of);
      t.last_of <- a
    end;
    t.last_of.(node) <- i
  end;
  i

let last_of t node =
  if node >= 0 && node < Array.length t.last_of then t.last_of.(node) else -1

let create () =
  let t =
    {
      on = true;
      n = 0;
      chunks = [||];
      cur = 0;
      retry_node = -1;
      last_of = Array.make 64 (-1);
    }
  in
  ignore
    (push t ~tick:0 ~node:(-1) ~kind:tag_root ~parent:(-1) ~aux:0 ~peer:(-1)
       ~token:(-1));
  t

let enabled t = t.on
let length t = t.n
let cur t = t.cur
let set_cur t e = t.cur <- e
let note_retry t ~node = t.retry_node <- node

let take_retry t ~node =
  if t.retry_node = node then begin
    t.retry_node <- -1;
    true
  end
  else false

let record_boot t ~tick ~node ~epoch =
  let parent = match last_of t node with -1 -> 0 | e -> e in
  push t ~tick ~node ~kind:tag_boot ~parent ~aux:epoch ~peer:(-1) ~token:(-1)

let record_timer t ~tick ~node ~parent =
  push t ~tick ~node ~kind:tag_timer ~parent ~aux:0 ~peer:(-1) ~token:(-1)

let record_send t ~tick ~node ~dst ~depart ~token ~retry =
  let kind = if retry then tag_send lor flag_retry else tag_send in
  push t ~tick ~node ~kind ~parent:t.cur ~aux:depart ~peer:dst ~token

let record_deliver t ~tick ~node ~src ~send ~token =
  push t ~tick ~node ~kind:tag_deliver ~parent:send ~aux:0 ~peer:src ~token

let record_crash t ~tick ~node =
  let parent = match last_of t node with -1 -> 0 | e -> e in
  push t ~tick ~node ~kind:tag_crash ~parent ~aux:0 ~peer:(-1) ~token:(-1)

let record_restart t ~tick ~node ~epoch =
  let parent = match last_of t node with -1 -> 0 | e -> e in
  push t ~tick ~node ~kind:tag_restart ~parent ~aux:epoch ~peer:(-1)
    ~token:(-1)

let record_complete t ~tick =
  push t ~tick ~node:(-1) ~kind:tag_complete ~parent:t.cur ~aux:0 ~peer:(-1)
    ~token:(-1)

let record_suspicion t ~tick ~node =
  ignore
    (push t ~tick ~node ~kind:tag_suspicion ~parent:t.cur ~aux:0 ~peer:(-1)
       ~token:(-1))

(* Field [f] of record [i]: one bounds check against the length, then
   unchecked reads — [Explain] scans the whole log through these.  The
   exception is preallocated so the failing branch is a bare raise, not
   a call that would make every inlined reader spill its registers. *)
let out_of_bounds = Invalid_argument "index out of bounds"

let[@inline] field t i f =
  if i lor (t.n - 1 - i) < 0 then raise out_of_bounds;
  Array.unsafe_get
    (Array.unsafe_get t.chunks (i lsr chunk_bits))
    (f + (i land chunk_mask))

let mark_fresh t =
  let i = t.cur in
  if i >= 0 then begin
    let a = t.chunks.(i lsr chunk_bits) and o = f_kind + (i land chunk_mask) in
    a.(o) <- a.(o) lor flag_fresh
  end

let[@inline] kind t i =
  match field t i f_kind land 15 with
  | 0 -> Root
  | 1 -> Boot
  | 2 -> Timer
  | 3 -> Send
  | 4 -> Deliver
  | 5 -> Crash
  | 6 -> Restart
  | 7 -> Complete
  | _ -> Suspicion

let[@inline] tick t i = field t i f_tick
let[@inline] node t i = field t i f_node
let[@inline] parent t i = field t i f_parent
let[@inline] peer t i = field t i f_peer
let[@inline] depart t i = field t i f_aux
let[@inline] token t i = field t i f_token
let[@inline] is_retry t i = field t i f_kind land flag_retry <> 0
let[@inline] is_fresh t i = field t i f_kind land flag_fresh <> 0
