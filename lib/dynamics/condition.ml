open Ocd_graph
module Int_vec = Ocd_prelude.Int_vec

type t = { effective : step:int -> src:int -> dst:int -> base:int -> int }

let effective t = t.effective

let make effective = { effective }

(* A keyed deterministic coin: hash (seed, a, b, c) down to a float in
   [0, 1).  Uses the SplitMix64 finaliser through Prng by seeding a
   throwaway generator with the mixed key. *)
let coin ~seed ~a ~b ~c =
  let key = (((((seed * 1_000_003) + a) * 1_000_003) + b) * 1_000_003) + c in
  let g = Ocd_prelude.Prng.create ~seed:key in
  Ocd_prelude.Prng.float g 1.0

let keyed_coin = coin

let static = { effective = (fun ~step:_ ~src:_ ~dst:_ ~base -> base) }

let compose a b =
  {
    effective =
      (fun ~step ~src ~dst ~base ->
        let c = a.effective ~step ~src ~dst ~base in
        if c <= 0 then 0 else b.effective ~step ~src ~dst ~base:c);
  }

let cross_traffic ~seed ~prob ~severity =
  if prob < 0.0 || prob > 1.0 || severity < 0.0 || severity > 1.0 then
    invalid_arg "Condition.cross_traffic: parameters out of [0,1]";
  let effective ~step ~src ~dst ~base =
    if coin ~seed ~a:step ~b:src ~c:dst < prob then
      int_of_float (float_of_int base *. (1.0 -. severity))
    else base
  in
  { effective }

(* Chain keys pack into one int, [b] and [c] each offset by
   [-key_min] into [key_bits] bits, so the memo probes an int-hashed
   table without allocating. *)
let key_min = -3
let key_bits = 31
let key_max = (1 lsl key_bits) + key_min - 1

let pack ~b ~c =
  if b < key_min || b > key_max || c < key_min || c > key_max then
    invalid_arg "Condition.chain: key out of range";
  ((b - key_min) lsl key_bits) lor (c - key_min)

module Key_tab = Hashtbl.Make (Ocd_prelude.Int_tab.Key)

(* One keyed two-state Markov chain per (b, c) key, memoised per key
   as an Int_vec of states filled forward from the last step computed:
   any query order yields the same trajectory and deep steps never
   recurse.  A state is the step its down-run began, or -1 while up. *)
let chain ~seed ~down_prob ~up_prob =
  if down_prob < 0.0 || down_prob > 1.0 || up_prob < 0.0 || up_prob > 1.0 then
    invalid_arg "Condition.chain: probabilities out of [0,1]";
  let runs : Int_vec.t Key_tab.t = Key_tab.create 64 in
  fun ~b ~c ~step ->
    let k = pack ~b ~c in
    if step <= 0 then -1
    else begin
      let states =
        match Key_tab.find runs k with
        | states -> states
        | exception Not_found ->
            let states = Int_vec.create () in
            Int_vec.push states (-1);
            Key_tab.add runs k states;
            states
      in
      for r = Int_vec.length states to step do
        let prev = Int_vec.get states (r - 1) in
        let x = coin ~seed ~a:r ~b ~c in
        Int_vec.push states
          (if prev < 0 then if x < down_prob then r else -1
           else if x < up_prob then -1
           else prev)
      done;
      Int_vec.get states step
    end

let link_flaps ~seed ~down_prob ~up_prob =
  let down = chain ~seed ~down_prob ~up_prob in
  {
    effective =
      (fun ~step ~src ~dst ~base ->
        if down ~b:src ~c:dst ~step < 0 then base else 0);
  }

(* A vertex's presence draws on the (v, -1) key, disjoint from every
   arc's (src, dst) key under the same seed. *)
let churn ~seed ~protected ~leave_prob ~return_prob =
  let away = chain ~seed ~down_prob:leave_prob ~up_prob:return_prob in
  let present ~step v =
    Ocd_prelude.Order.mem_int v protected || away ~b:v ~c:(-1) ~step < 0
  in
  {
    effective =
      (fun ~step ~src ~dst ~base ->
        if present ~step src && present ~step dst then base else 0);
  }

let graph_at t ~step g =
  let arcs =
    List.filter_map
      (fun { Digraph.src; dst; capacity } ->
        let c = t.effective ~step ~src ~dst ~base:capacity in
        if c <= 0 then None else Some { Digraph.src; dst; capacity = c })
      (Digraph.arcs g)
  in
  if arcs = [] then None
  else Some (Digraph.of_arcs ~vertex_count:(Digraph.vertex_count g) arcs)
