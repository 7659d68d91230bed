open Ocd_prelude

(* Both passes are flag sweeps over the packed schedule: [keep] holds
   one byte per move (global emission order), and the rebuilt schedule
   is the kept subset pushed through a builder. *)

let mark (inst : Instance.t) schedule keep =
  let n = Instance.vertex_count inst in
  let token_count = inst.token_count in
  (* Pass 2: backwards sweep.  A delivery (step i, u->v, t) is useful
     iff v wants t, or v forwards t in a retained move at some step
     strictly after i — so each step filters against [fw] before its
     own retained sources are marked.  Pass 1 bounds the tokens of kept
     moves, making [v * token_count + token] an injective bitset key;
     marks from out-of-range sources are unreadable (pass 1 already
     range-checked every destination) and are skipped. *)
  let fw = Bitset.create (n * token_count) in
  let next = ref (Schedule.move_count schedule) in
  let kept = ref 0 in
  for i = Schedule.length schedule - 1 downto 0 do
    let first = !next - Schedule.step_move_count schedule i in
    let j = ref first in
    Schedule.iter_step schedule i (fun ~src:_ ~dst ~token ->
        if
          Bytes.get keep !j = '\001'
          && not
               (Bitset.mem inst.want.(dst) token
               || Bitset.mem fw ((dst * token_count) + token))
        then Bytes.set keep !j '\000';
        incr j);
    let j = ref first in
    Schedule.iter_step schedule i (fun ~src ~dst:_ ~token ->
        if Bytes.get keep !j = '\001' then begin
          incr kept;
          if src >= 0 && src < n then Bitset.add fw ((src * token_count) + token)
        end;
        incr j);
    next := first
  done;
  !kept

let prune inst schedule =
  let len = Schedule.length schedule in
  (* Pass 1: keep only the first delivery of each token to each vertex,
     and only when the vertex did not already hold the token. *)
  let keep = Timeline.first_deliveries (Timeline.run inst schedule) in
  ignore (mark inst schedule keep);
  let b = Schedule.Builder.create ~steps_hint:len () in
  let j = ref 0 in
  for i = 0 to len - 1 do
    Schedule.iter_step schedule i (fun ~src ~dst ~token ->
        if Bytes.get keep !j = '\001' then
          Schedule.Builder.push_move b ~src ~dst ~token;
        incr j);
    Schedule.Builder.end_step b
  done;
  Schedule.drop_trailing_empty (Schedule.Builder.to_schedule b)
