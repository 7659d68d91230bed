open Ocd_prelude
module View = Ocd_graph.Digraph.View

(* Every random draw of a pull round lives here, so callers driving
   this with identical rng states and identical views (the async node
   and its lockstep twin) pick identically. *)
let requests ~rng ~token_count ~have ~eligible ~alive ~preds ~rarity ~holds =
  let missing = Bitset.diff (Bitset.full token_count) have in
  if Bitset.is_empty missing then []
  else begin
    (* ascending rarity, random tie-breaks: shuffle once, then
       stable-sort (the shape of the synchronous heuristic's order) *)
    let tokens = Array.of_list (Bitset.elements missing) in
    Prng.shuffle rng tokens;
    let ranked = Order.sort_by rarity (Array.to_list tokens) in
    let budget = View.caps preds in
    let picks = ref [] in
    List.iter
      (fun token ->
        if eligible token then begin
          let holds = holds token in
          let candidates = ref [] in
          View.iteri
            (fun i u _ ->
              if budget.(i) > 0 && alive u && holds i then
                candidates := i :: !candidates)
            preds;
          match !candidates with
          | [] -> ()
          | cs ->
              let i = Prng.pick_list rng cs in
              budget.(i) <- budget.(i) - 1;
              picks := (View.dst preds i, token) :: !picks
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

(* token -> its retry record, created by the first request and kept
   for the incarnation so attempts keep counting *)
type t = { ctx : Protocol.ctx; retries : (int, retry) Hashtbl.t }

let create ctx = { ctx; retries = Hashtbl.create 8 }

let eligible t token =
  match Hashtbl.find_opt t.retries token with
  | Some r when r.outstanding -> t.ctx.now () >= r.deadline
  | _ -> true

let release_suspected t ~alive =
  Hashtbl.iter
    (fun _ r -> if r.outstanding && not (alive r.holder) then r.outstanding <- false)
    t.retries

let request t ~holder token =
  let r =
    match Hashtbl.find_opt t.retries token with
    | Some r -> r
    | None ->
        let r = { outstanding = false; holder; deadline = 0; attempts = 0 } in
        Hashtbl.add t.retries token r;
        r
  in
  let a = r.attempts in
  if a > 0 then t.ctx.note_retransmission ();
  r.attempts <- a + 1;
  r.outstanding <- true;
  r.holder <- holder;
  r.deadline <- t.ctx.now () + (t.ctx.pace * (1 lsl min a max_backoff_exp));
  t.ctx.send ~dst:holder (Message.Request token)

let arrived t token =
  match Hashtbl.find_opt t.retries token with
  | Some r -> r.outstanding <- false
  | None -> ()
