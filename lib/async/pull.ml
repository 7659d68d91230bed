open Ocd_prelude
module View = Ocd_graph.Digraph.View

(* Every random draw of a pull round lives here, so callers driving
   this with identical rng states and identical views (the async node
   and its lockstep twin) pick identically.

   A round allocates the shuffled token array, the ranked list the sort
   needs, one int array for the per-slot budget and candidate scratch,
   and the picks: no per-token list or closure.  The comparison sort
   keys on [Int.compare]; it still calls [rarity] twice per
   comparison, [b]'s key first, exactly as [Order.sort_by]'s
   [compare (score a) (score b)] evaluates its arguments.

   Which [alive] calls are part of the contract: the first probe of
   each peer, and its order, since a detector records a suspicion on
   the first probe of a silent peer.  A repeat probe at the same tick
   returns the same verdict and records nothing.  async-local's rarity
   ([Local_rarest.requests]) probes every believed slot, in slot
   order, on the sort's first [rarity] call and reads a count on the
   later ones; dht-rarest's rarity probes nothing.  The slot loop
   below then probes in ascending slot order, after the budget test
   and before [holds]. *)
let requests ~rng ~token_count ~have ~eligible ~alive ~preds ~rarity ~holds =
  if Bitset.capacity have <> token_count then
    invalid_arg "Bitset: capacity mismatch";
  let missing = token_count - Bitset.cardinal have in
  if missing = 0 then []
  else begin
    (* ascending rarity, random tie-breaks: shuffle once, then
       stable-sort (the shape of the synchronous heuristic's order) *)
    let tokens = Array.make missing 0 in
    let k = ref 0 in
    for token = 0 to token_count - 1 do
      if not (Bitset.mem have token) then begin
        tokens.(!k) <- token;
        incr k
      end
    done;
    Prng.shuffle rng tokens;
    let ranked =
      List.stable_sort
        (fun a b ->
          let kb = rarity b in
          Int.compare (rarity a) kb)
        (Array.to_list tokens)
    in
    (* [scratch.(i)] is slot [i]'s remaining budget; the upper half
       collects one token's candidate slots, ascending *)
    let slots = View.length preds in
    let scratch = Array.make (2 * slots) 0 in
    View.caps_into preds scratch;
    let picks = ref [] in
    List.iter
      (fun token ->
        if eligible token then begin
          let holds = holds token in
          let found = ref 0 in
          for i = 0 to slots - 1 do
            if scratch.(i) > 0 && alive (View.dst preds i) && holds i then begin
              scratch.(slots + !found) <- i;
              incr found
            end
          done;
          if !found > 0 then begin
            (* [Prng.pick_list] over the candidates newest-first *)
            let i = scratch.(slots + !found - 1 - Prng.int rng !found) in
            scratch.(i) <- scratch.(i) - 1;
            picks := (View.dst preds i, token) :: !picks
          end
        end)
      ranked;
    List.rev !picks
  end

let max_backoff_exp = 6

type retry = {
  mutable outstanding : bool;
  mutable holder : int;
  mutable deadline : int;
  mutable attempts : int;
}

module Retries = Hashtbl.Make (Int_tab.Key)

(* token -> its retry record, created by the first request and kept
   for the incarnation so attempts keep counting *)
type t = { ctx : Protocol.ctx; retries : retry Retries.t }

let create ctx = { ctx; retries = Retries.create 8 }

let eligible t token =
  match Retries.find_opt t.retries token with
  | Some r when r.outstanding -> t.ctx.now () >= r.deadline
  | _ -> true

let release_suspected t ~alive =
  Retries.iter
    (fun _ r -> if r.outstanding && not (alive r.holder) then r.outstanding <- false)
    t.retries

let request t ~holder token =
  let r =
    match Retries.find_opt t.retries token with
    | Some r -> r
    | None ->
        let r = { outstanding = false; holder; deadline = 0; attempts = 0 } in
        Retries.add t.retries token r;
        r
  in
  let a = r.attempts in
  if a > 0 then t.ctx.note_retransmission ();
  r.attempts <- a + 1;
  r.outstanding <- true;
  r.holder <- holder;
  r.deadline <- t.ctx.now () + (t.ctx.pace * (1 lsl Int.min a max_backoff_exp));
  t.ctx.send ~dst:holder (Message.Request token)

let arrived t token =
  match Retries.find_opt t.retries token with
  | Some r -> r.outstanding <- false
  | None -> ()
