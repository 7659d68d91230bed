open Ocd_prelude
open Ocd_graph

type t = {
  graph : Digraph.t;
  token_count : int;
  have : Bitset.t array;
  want : Bitset.t array;
}

let validate inst =
  let n = Digraph.vertex_count inst.graph in
  if Array.length inst.have <> n || Array.length inst.want <> n then
    invalid_arg "Instance: have/want arrays must cover every vertex";
  let check_set s =
    if Bitset.capacity s <> inst.token_count then
      invalid_arg "Instance: token set capacity mismatch"
  in
  Array.iter check_set inst.have;
  Array.iter check_set inst.want;
  (* Every token must start somewhere or the problem is vacuous. *)
  let held = Bitset.create inst.token_count in
  Array.iter (fun s -> Bitset.union_into held s) inst.have;
  if Bitset.cardinal held <> inst.token_count then
    invalid_arg "Instance: some token has no initial holder";
  inst

let make ~graph ~token_count ~have ~want =
  if token_count < 0 then invalid_arg "Instance.make: negative token count";
  let n = Digraph.vertex_count graph in
  let build assoc =
    let sets = Array.init n (fun _ -> Bitset.create token_count) in
    let fill (v, tokens) =
      if v < 0 || v >= n then invalid_arg "Instance.make: vertex out of range";
      List.iter (Bitset.add sets.(v)) tokens
    in
    List.iter fill assoc;
    sets
  in
  validate { graph; token_count; have = build have; want = build want }

let with_graph inst graph =
  if Digraph.vertex_count graph <> Digraph.vertex_count inst.graph then
    invalid_arg "Instance.with_graph: vertex count mismatch";
  { inst with graph }

let vertex_count inst = Digraph.vertex_count inst.graph

let vertices_with sets token =
  let acc = ref [] in
  Array.iteri (fun v s -> if Bitset.mem s token then acc := v :: !acc) sets;
  List.rev !acc

let holders inst token = vertices_with inst.have token
let wanters inst token = vertices_with inst.want token

let deficit inst v = Bitset.diff inst.want.(v) inst.have.(v)

let total_deficit inst =
  let acc = ref 0 in
  for v = 0 to vertex_count inst - 1 do
    acc := !acc + Bitset.cardinal (deficit inst v)
  done;
  !acc

let trivially_satisfied inst = total_deficit inst = 0

let satisfiable inst =
  (* For each token, multi-source BFS from its holders must reach every
     wanter. *)
  let ok = ref true in
  for token = 0 to inst.token_count - 1 do
    if !ok then begin
      match holders inst token with
      | [] -> ok := false
      | sources ->
        let dist = Ocd_graph.Traversal.bfs_levels_multi inst.graph sources in
        List.iter (fun v -> if dist.(v) < 0 then ok := false) (wanters inst token)
    end
  done;
  !ok
