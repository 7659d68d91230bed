open Ocd_core
open Ocd_prelude
open Ocd_graph

let default_source (inst : Instance.t) =
  let best = ref 0 and best_count = ref (-1) in
  Array.iteri
    (fun v s ->
      let c = Bitset.cardinal s in
      if c > !best_count then begin
        best := v;
        best_count := c
      end)
    inst.have;
  !best

let widest_path_tree g ~root =
  let n = Digraph.vertex_count g in
  let width = Array.make n 0 in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Pqueue.create () in
  width.(root) <- max_int;
  (* min-heap on negated width = max-heap on width *)
  Pqueue.push heap ~priority:(-max_int) root;
  let rec drain () =
    match Pqueue.pop heap with
    | None -> ()
    | Some (neg, u) ->
      if (not settled.(u)) && -neg = width.(u) then begin
        settled.(u) <- true;
        Digraph.View.iter
          (fun v cap ->
            let w = Int.min width.(u) cap in
            if w > width.(v) then begin
              width.(v) <- w;
              parent.(v) <- u;
              Pqueue.push heap ~priority:(-w) v
            end)
          (Digraph.succ g u)
      end;
      drain ()
  in
  drain ();
  let children = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  { Disjoint_trees.root; parent; children }

let send_down_arc ~buf ~have ~src ~dst ~cap ~only () =
  Bitset.Rows.into buf have src;
  Bitset.Rows.diff_into buf have dst;
  (match only with Some s -> Bitset.inter_into buf s | None -> ());
  let rec collect cursor left acc =
    if left = 0 then List.rev acc
    else
      match Bitset.next_member buf cursor with
      | None -> List.rev acc
      | Some token ->
        collect (token + 1) (left - 1) ({ Move.src; dst; token } :: acc)
  in
  collect 0 cap []
