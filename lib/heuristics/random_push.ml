open Ocd_core
open Ocd_prelude
open Ocd_graph

(* Uniform sample of [count] distinct elements of [set] (all of them
   when fewer) into [out]: reservoir sampling over the bitset
   iteration, same draw sequence as the historical list-returning
   version. *)
let sample_tokens_into rng set count out =
  Int_vec.clear out;
  if count > 0 then begin
    let seen = ref 0 in
    Bitset.iter
      (fun t ->
        if !seen < count then Int_vec.push out t
        else begin
          let j = Prng.int rng (!seen + 1) in
          if j < count then Int_vec.set out j t
        end;
        incr seen)
      set
  end

(* One push round: every arc [src -> dst] carries a uniform sample, up
   to its capacity, of the tokens [src] holds now and [dst] lacks in
   [peer], the senders' view of the receivers' possession. *)
let push (ctx : Ocd_engine.Strategy.context) peer =
  let graph = ctx.instance.Instance.graph in
  let scratch = ctx.scratch in
  let useful = scratch.Ocd_engine.Strategy.tokens_a in
  let sample = scratch.Ocd_engine.Strategy.candidates in
  let moves = ref [] in
  for src = 0 to Digraph.vertex_count graph - 1 do
    if not (Bitset.Rows.is_empty ctx.have src) then
      Digraph.View.iter
        (fun dst cap ->
          Bitset.Rows.into useful ctx.have src;
          Bitset.Rows.diff_into useful peer dst;
          sample_tokens_into ctx.rng useful cap sample;
          Int_vec.iter
            (fun token -> moves := { Move.src; dst; token } :: !moves)
            sample)
        (Digraph.succ graph src)
  done;
  !moves

let strategy =
  let make _inst _rng (ctx : Ocd_engine.Strategy.context) = push ctx ctx.have in
  { Ocd_engine.Strategy.name = "random"; make }

let with_staleness ~turns =
  if turns < 0 then invalid_arg "Random_push.with_staleness: negative turns";
  let make (inst : Instance.t) _rng =
    (* Ring buffer of possession snapshots; index step mod (turns+1)
       holds the state at the start of that step. *)
    let history = Array.make (turns + 1) None in
    let initial = Bitset.Rows.of_sets inst.token_count inst.have in
    fun (ctx : Ocd_engine.Strategy.context) ->
      history.(ctx.step mod (turns + 1)) <- Some (Bitset.Rows.copy ctx.have);
      let stale =
        if ctx.step < turns then initial
        else
          match history.((ctx.step - turns) mod (turns + 1)) with
          | Some snapshot -> snapshot
          | None -> initial
      in
      (* The sender's own possession is current; only the peer's state
         is stale. *)
      push ctx stale
  in
  {
    Ocd_engine.Strategy.name = Printf.sprintf "random-stale-%d" turns;
    make;
  }
