(* Eight parallel int arrays, doubled together.  Ocd_prelude.Int_vec
   is the obvious building block but ocd_prelude depends on ocd_obs
   (Pool is instrumented), so the growth logic is inlined here. *)

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

type t = {
  on : bool;
  mutable n : int;
  mutable ticks : int array;
  mutable nodes : int array;
  mutable kinds : int array;
  mutable parents : int array;
  mutable auxs : int array;  (* Send: depart; Boot/Restart: epoch *)
  mutable peers : int array;  (* Send: dst; Deliver: src *)
  mutable tokens : int array;
  mutable cur : int;
  mutable retry_node : int;  (* pending-retry marker, -1 when clear *)
  mutable last_of : int array;  (* per-node last recorded event id *)
}

let disabled =
  {
    on = false;
    n = 0;
    ticks = [||];
    nodes = [||];
    kinds = [||];
    parents = [||];
    auxs = [||];
    peers = [||];
    tokens = [||];
    cur = -1;
    retry_node = -1;
    last_of = [||];
  }

let grow t =
  let cap = Array.length t.ticks in
  let cap' = if cap = 0 then 1024 else cap * 2 in
  let g a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 t.n; a' in
  t.ticks <- g t.ticks;
  t.nodes <- g t.nodes;
  t.kinds <- g t.kinds;
  t.parents <- g t.parents;
  t.auxs <- g t.auxs;
  t.peers <- g t.peers;
  t.tokens <- g t.tokens

let push t ~tick ~node ~kind ~parent ~aux ~peer ~token =
  if t.n = Array.length t.ticks then grow t;
  let i = t.n in
  t.ticks.(i) <- tick;
  t.nodes.(i) <- node;
  t.kinds.(i) <- kind;
  t.parents.(i) <- parent;
  t.auxs.(i) <- aux;
  t.peers.(i) <- peer;
  t.tokens.(i) <- token;
  t.n <- i + 1;
  if node >= 0 then begin
    if node >= Array.length t.last_of then begin
      let cap = max 64 ((node + 1) * 2) in
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
      ticks = Array.make 1024 0;
      nodes = Array.make 1024 0;
      kinds = Array.make 1024 0;
      parents = Array.make 1024 0;
      auxs = Array.make 1024 0;
      peers = Array.make 1024 0;
      tokens = Array.make 1024 0;
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

let mark_fresh t =
  if t.cur >= 0 then t.kinds.(t.cur) <- t.kinds.(t.cur) lor flag_fresh

let kind t i =
  match t.kinds.(i) land 15 with
  | 0 -> Root
  | 1 -> Boot
  | 2 -> Timer
  | 3 -> Send
  | 4 -> Deliver
  | 5 -> Crash
  | 6 -> Restart
  | 7 -> Complete
  | _ -> Suspicion

let tick t i = t.ticks.(i)
let node t i = t.nodes.(i)
let parent t i = t.parents.(i)
let peer t i = t.peers.(i)
let depart t i = t.auxs.(i)
let token t i = t.tokens.(i)
let is_retry t i = t.kinds.(i) land flag_retry <> 0
let is_fresh t i = t.kinds.(i) land flag_fresh <> 0
