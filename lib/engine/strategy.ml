open Ocd_core
open Ocd_prelude

type scratch = {
  tokens_a : Bitset.t;
  tokens_b : Bitset.t;
  mutable budget_buf : int array;
  mutable elig_buf : int array;
  mutable cand_buf : int array;
  candidates : Int_vec.t;
  order : Int_vec.t;
  mutable listeners : (dst:int -> token:int -> unit) list;
}

let scratch_create ~token_count =
  {
    tokens_a = Bitset.create token_count;
    tokens_b = Bitset.create token_count;
    budget_buf = [||];
    elig_buf = [||];
    cand_buf = [||];
    candidates = Int_vec.create ();
    order = Int_vec.create ();
    listeners = [];
  }

let grow buf len = Array.make (Int.max len (2 * Array.length buf)) 0

let budget scratch len =
  if Array.length scratch.budget_buf < len then
    scratch.budget_buf <- grow scratch.budget_buf len;
  scratch.budget_buf

let elig scratch len =
  if Array.length scratch.elig_buf < len then
    scratch.elig_buf <- grow scratch.elig_buf len;
  scratch.elig_buf

let cand scratch len =
  if Array.length scratch.cand_buf < len then
    scratch.cand_buf <- grow scratch.cand_buf len;
  scratch.cand_buf

let notify_deliver scratch ~dst ~token =
  List.iter (fun f -> f ~dst ~token) scratch.listeners

type context = {
  instance : Instance.t;
  have : Bitset.Rows.t;
  step : int;
  rng : Prng.t;
  scratch : scratch;
}

let on_deliver ctx f = ctx.scratch.listeners <- f :: ctx.scratch.listeners

let assign_first_holder ctx preds budget ~dst token moves =
  let module View = Ocd_graph.Digraph.View in
  let rec first i =
    i < View.length preds
    && (let src = View.dst preds i in
        if budget.(i) > 0 && Bitset.Rows.mem ctx.have src token then begin
          budget.(i) <- budget.(i) - 1;
          moves := { Move.src; dst; token } :: !moves;
          true
        end
        else first (i + 1))
  in
  first 0

type decide = context -> Move.t list

type t = {
  name : string;
  make : Instance.t -> Prng.t -> decide;
}

let stateless ~name decide = { name; make = (fun _ _ -> decide) }
