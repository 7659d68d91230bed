open Ocd_core
open Ocd_prelude

type t = { have_count : int array; need_count : int array }

let compute (inst : Instance.t) have =
  let m = inst.token_count in
  let have_count = Array.make m 0 in
  let need_count = Array.make m 0 in
  let row = Bitset.create m in
  for v = 0 to Instance.vertex_count inst - 1 do
    Bitset.Rows.into row have v;
    Bitset.iter (fun t -> have_count.(t) <- have_count.(t) + 1) row;
    Bitset.iter
      (fun t -> if not (Bitset.mem row t) then need_count.(t) <- need_count.(t) + 1)
      inst.want.(v)
  done;
  { have_count; need_count }

let update t (inst : Instance.t) ~dst ~token =
  (* A fresh delivery: [dst] did not hold [token] before, so it gains a
     holder; if [dst] wanted it, one outstanding need is met.  Applying
     this at every fresh delivery keeps [t] exactly equal to
     [compute inst have] at every step boundary. *)
  t.have_count.(token) <- t.have_count.(token) + 1;
  if Bitset.mem inst.want.(dst) token then
    t.need_count.(token) <- t.need_count.(token) - 1

let tracked (inst : Instance.t) =
  let cell = ref None in
  fun (ctx : Ocd_engine.Strategy.context) ->
    match !cell with
    | Some agg -> agg
    | None ->
      (* First decision of the run: compute from the current possession
         state, then keep the vectors exact through the engine's
         fresh-delivery notifications — O(n·m) once instead of per
         step. *)
      let agg = compute inst ctx.have in
      cell := Some agg;
      Ocd_engine.Strategy.on_deliver ctx (fun ~dst ~token ->
          update agg inst ~dst ~token);
      agg
