open Ocd_core
open Ocd_prelude
open Ocd_graph

type t = {
  instance : Instance.t;
  known : Bitset.t array;
      (** [known.(v)] = set of vertices whose initial state [v] knows *)
  neighbor_lists : int list array;
}

let create (inst : Instance.t) =
  let n = Instance.vertex_count inst in
  {
    instance = inst;
    known = Array.init n (fun v -> Bitset.singleton n v);
    neighbor_lists =
      Array.init n (fun v -> Digraph.neighbors inst.graph v);
  }

let step t =
  (* Synchronous round: next(v) = known(v) ∪ ⋃_{u ~ v} known(u),
     computed against the pre-round snapshot. *)
  let snapshot = Array.map Bitset.copy t.known in
  Array.iteri
    (fun v neighbors ->
      List.iter (fun u -> Bitset.union_into t.known.(v) snapshot.(u)) neighbors)
    t.neighbor_lists

let vertex_complete t v =
  Bitset.cardinal t.known.(v) = Instance.vertex_count t.instance

let complete t =
  let n = Instance.vertex_count t.instance in
  let rec go v = v >= n || (vertex_complete t v && go (v + 1)) in
  go 0

let steps_to_complete inst =
  if not (Components.is_weakly_connected (inst : Instance.t).graph) then
    invalid_arg "Knowledge.steps_to_complete: graph not weakly connected";
  let t = create inst in
  let rec go i =
    if complete t then i
    else begin
      step t;
      go (i + 1)
    end
  in
  go 0
