(* Tests for ocd_graph. *)

open Ocd_graph

let qtest = QCheck_alcotest.to_alcotest

(* A small fixed graph used across cases:
     0 -> 1 (cap 2), 1 -> 2 (cap 1), 0 -> 2 (cap 5), 2 -> 0 (cap 1) *)
let fixture () =
  Digraph.of_arcs ~vertex_count:3
    [
      { Digraph.src = 0; dst = 1; capacity = 2 };
      { Digraph.src = 1; dst = 2; capacity = 1 };
      { Digraph.src = 0; dst = 2; capacity = 5 };
      { Digraph.src = 2; dst = 0; capacity = 1 };
    ]

(* Random connected digraph generator for property tests (built as an
   undirected graph, so strongly connected). *)
let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* seed = int_range 0 10_000 in
    let rng = Ocd_prelude.Prng.create ~seed in
    let edges = ref [] in
    (* random spanning tree + extras *)
    for i = 1 to n - 1 do
      let j = Ocd_prelude.Prng.int rng i in
      edges := (j, i, 1 + Ocd_prelude.Prng.int rng 5) :: !edges
    done;
    for _ = 1 to n do
      let u = Ocd_prelude.Prng.int rng n and v = Ocd_prelude.Prng.int rng n in
      if u <> v then edges := (u, v, 1 + Ocd_prelude.Prng.int rng 5) :: !edges
    done;
    return (Digraph.of_edges ~vertex_count:n !edges))

let arbitrary_graph = QCheck.make random_graph_gen

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_digraph_basic () =
  let g = fixture () in
  Alcotest.(check int) "vertices" 3 (Digraph.vertex_count g);
  Alcotest.(check int) "arcs" 4 (Digraph.arc_count g);
  Alcotest.(check int) "capacity 0->2" 5 (Digraph.capacity g 0 2);
  Alcotest.(check int) "capacity absent" 0 (Digraph.capacity g 1 0);
  Alcotest.(check bool) "mem_arc" true (Digraph.mem_arc g 0 1);
  Alcotest.(check bool) "mem_arc absent" false (Digraph.mem_arc g 2 1)

let test_digraph_degrees () =
  let g = fixture () in
  Alcotest.(check int) "in_capacity 2" 6 (Digraph.in_capacity g 2)

let test_digraph_merges_multiarcs () =
  let g =
    Digraph.of_arcs ~vertex_count:2
      [
        { Digraph.src = 0; dst = 1; capacity = 2 };
        { Digraph.src = 0; dst = 1; capacity = 3 };
      ]
  in
  Alcotest.(check int) "merged capacity" 5 (Digraph.capacity g 0 1);
  Alcotest.(check int) "single arc" 1 (Digraph.arc_count g)

let test_digraph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.of_arcs: self-loop")
    (fun () ->
      ignore
        (Digraph.of_arcs ~vertex_count:2
           [ { Digraph.src = 1; dst = 1; capacity = 1 } ]))

let test_digraph_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Digraph.of_arcs: non-positive capacity") (fun () ->
      ignore
        (Digraph.of_arcs ~vertex_count:2
           [ { Digraph.src = 0; dst = 1; capacity = 0 } ]))

let test_digraph_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Digraph.of_arcs: endpoint out of range") (fun () ->
      ignore
        (Digraph.of_arcs ~vertex_count:2
           [ { Digraph.src = 0; dst = 2; capacity = 1 } ]))

let test_digraph_of_edges_bidirectional () =
  let g = Digraph.of_edges ~vertex_count:2 [ (0, 1, 4) ] in
  Alcotest.(check int) "forward" 4 (Digraph.capacity g 0 1);
  Alcotest.(check int) "backward" 4 (Digraph.capacity g 1 0)

let test_digraph_neighbors () =
  let g = fixture () in
  Alcotest.(check (list int)) "neighbors of 0" [ 1; 2 ] (Digraph.neighbors g 0);
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 2 ] (Digraph.neighbors g 1)

let test_digraph_arcs_listing () =
  let g = fixture () in
  let arcs = Digraph.arcs g in
  Alcotest.(check int) "length" 4 (List.length arcs);
  let srcs = List.map (fun a -> a.Digraph.src) arcs in
  Alcotest.(check (list int)) "grouped by src" (List.sort compare srcs) srcs

(* ------------------------------------------------------------------ *)
(* CSR differential: the flat representation must agree with a naive   *)
(* reference adjacency (the legacy semantics: rows sorted ascending,   *)
(* duplicates merged by summing capacities).                           *)
(* ------------------------------------------------------------------ *)

(* Independent reference implementation over a directed arc list. *)
let naive_rows n arcs key other =
  Array.init n (fun v ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun a ->
          if key a = v then begin
            let w = other a in
            let prev = Option.value (Hashtbl.find_opt tbl w) ~default:0 in
            Hashtbl.replace tbl w (prev + a.Digraph.capacity)
          end)
        arcs;
      Hashtbl.fold (fun w c acc -> (w, c) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> Array.of_list)

let check_against_naive n arcs g =
  let succ_ref = naive_rows n arcs (fun a -> a.Digraph.src) (fun a -> a.Digraph.dst) in
  let pred_ref = naive_rows n arcs (fun a -> a.Digraph.dst) (fun a -> a.Digraph.src) in
  let ok = ref true in
  for v = 0 to n - 1 do
    if Digraph.View.to_array (Digraph.succ g v) <> succ_ref.(v) then ok := false;
    if Digraph.View.to_array (Digraph.pred g v) <> pred_ref.(v) then ok := false;
    Array.iter
      (fun (w, c) -> if Digraph.capacity g v w <> c then ok := false)
      succ_ref.(v);
    (* View.index binary-searches both sides, so pred rows must be
       sorted too: every listed neighbour is found at its position and
       every other vertex is absent. *)
    List.iter
      (fun (view, row) ->
        for w = 0 to n - 1 do
          let expect =
            match Array.find_index (fun (u, _) -> u = w) row with
            | Some i -> i
            | None -> -1
          in
          if Digraph.View.index view w <> expect then ok := false
        done)
      [ (Digraph.succ g v, succ_ref.(v)); (Digraph.pred g v, pred_ref.(v)) ]
  done;
  !ok

let directed_arcs_gen =
  QCheck.Gen.(
    let* n = int_range 2 15 in
    let* seed = int_range 0 10_000 in
    let rng = Ocd_prelude.Prng.create ~seed in
    let count = 2 * n in
    let arcs = ref [] in
    for _ = 1 to count do
      let u = Ocd_prelude.Prng.int rng n and v = Ocd_prelude.Prng.int rng n in
      if u <> v then
        arcs :=
          { Digraph.src = u; dst = v; capacity = 1 + Ocd_prelude.Prng.int rng 9 }
          :: !arcs
    done;
    return (n, !arcs))

let prop_csr_matches_naive_directed =
  QCheck.Test.make ~name:"CSR succ/pred match naive adjacency (of_arcs)"
    ~count:200
    (QCheck.make directed_arcs_gen)
    (fun (n, arcs) ->
      check_against_naive n arcs (Digraph.of_arcs ~vertex_count:n arcs))

let prop_csr_matches_naive_undirected =
  QCheck.Test.make ~name:"CSR succ/pred match naive adjacency (of_edges)"
    ~count:200
    (QCheck.make directed_arcs_gen)
    (fun (n, arcs) ->
      let edges =
        List.map (fun a -> (a.Digraph.src, a.Digraph.dst, a.Digraph.capacity)) arcs
      in
      let both =
        arcs
        @ List.map
            (fun a -> { a with Digraph.src = a.Digraph.dst; dst = a.Digraph.src })
            arcs
      in
      check_against_naive n both (Digraph.of_edges ~vertex_count:n edges))

let prop_append_equals_rebuild =
  QCheck.Test.make
    ~name:"add_undirected_edges equals a full rebuild" ~count:200
    (QCheck.make directed_arcs_gen)
    (fun (n, arcs) ->
      match arcs with
      | [] -> true
      | first :: rest ->
        let edge a = (a.Digraph.src, a.Digraph.dst, a.Digraph.capacity) in
        (* split: build from [rest], append [first] plus a fresh edge *)
        let base = Digraph.of_edges ~vertex_count:n (List.map edge rest) in
        let extra = [ edge first ] in
        let appended = Digraph.add_undirected_edges base extra in
        let rebuilt =
          Digraph.of_edges ~vertex_count:n (List.map edge rest @ extra)
        in
        Digraph.arcs appended = Digraph.arcs rebuilt
        && Digraph.arc_count appended = Digraph.arc_count rebuilt)

let test_view_accessors () =
  let g = fixture () in
  let row = Digraph.succ g 0 in
  Alcotest.(check int) "length" 2 (Digraph.View.length row);
  Alcotest.(check int) "dst 0" 1 (Digraph.View.dst row 0);
  Alcotest.(check int) "dst 1" 2 (Digraph.View.dst row 1);
  Alcotest.(check (array int)) "dsts" [| 1; 2 |] (Digraph.View.dsts row);
  Alcotest.(check (array int)) "caps" [| 2; 5 |] (Digraph.View.caps row);
  Alcotest.(check int) "fold sums caps" 7
    (Digraph.View.fold (fun acc _ c -> acc + c) 0 row);
  Alcotest.(check bool) "exists" true
    (Digraph.View.exists (fun d _ -> d = 2) row);
  Alcotest.(check bool) "exists false" false
    (Digraph.View.exists (fun d _ -> d = 0) row);
  let seen = ref [] in
  Digraph.View.iteri (fun i d c -> seen := (i, d, c) :: !seen) row;
  Alcotest.(check (list (triple int int int)))
    "iteri order" [ (0, 1, 2); (1, 2, 5) ] (List.rev !seen)

let test_add_edges_merges_duplicate () =
  let g = Digraph.of_edges ~vertex_count:3 [ (0, 1, 2) ] in
  let g' = Digraph.add_undirected_edges g [ (0, 1, 3); (1, 2, 1) ] in
  Alcotest.(check int) "summed" 5 (Digraph.capacity g' 0 1);
  Alcotest.(check int) "summed reverse" 5 (Digraph.capacity g' 1 0);
  Alcotest.(check int) "new edge" 1 (Digraph.capacity g' 1 2);
  Alcotest.(check int) "arc count" 4 (Digraph.arc_count g');
  Alcotest.(check int) "base untouched" 2 (Digraph.capacity g 0 1)

let test_add_edges_validates () =
  let g = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.of_arcs: self-loop")
    (fun () -> ignore (Digraph.add_undirected_edges g [ (1, 1, 1) ]))

let test_of_undirected_arrays_matches_of_edges () =
  let edges = [ (0, 1, 3); (2, 0, 4); (1, 2, 1); (0, 1, 2) ] in
  let g1 = Digraph.of_edges ~vertex_count:3 edges in
  let g2 =
    Digraph.of_undirected_arrays ~vertex_count:3
      ~src:[| 0; 2; 1; 0 |] ~dst:[| 1; 0; 2; 1 |] ~cap:[| 3; 4; 1; 2 |]
  in
  Alcotest.(check bool) "same arcs" true (Digraph.arcs g1 = Digraph.arcs g2)

(* ------------------------------------------------------------------ *)
(* Traversal / Paths                                                   *)
(* ------------------------------------------------------------------ *)

let path_graph n =
  Digraph.of_edges ~vertex_count:n (List.init (n - 1) (fun i -> (i, i + 1, 1)))

let test_bfs_levels () =
  let g = path_graph 5 in
  Alcotest.(check (array int)) "levels" [| 0; 1; 2; 3; 4 |]
    (Traversal.bfs_levels g 0)

let test_bfs_levels_unreachable () =
  let g =
    Digraph.of_arcs ~vertex_count:3 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  Alcotest.(check (array int)) "unreachable" [| 0; 1; -1 |]
    (Traversal.bfs_levels g 0)

let test_bfs_multi () =
  let g = path_graph 5 in
  Alcotest.(check (array int)) "multi source" [| 0; 1; 2; 1; 0 |]
    (Traversal.bfs_levels_multi g [ 0; 4 ])

let test_reachable () =
  let g =
    Digraph.of_arcs ~vertex_count:3 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  Alcotest.(check (array bool)) "reachable" [| true; true; false |]
    (Traversal.reachable g 0)

let test_dijkstra_unit_matches_bfs () =
  let g = fixture () in
  let dist, _ = Paths.dijkstra g ~cost:(fun _ _ -> 1) 0 in
  let bfs = Traversal.bfs_levels g 0 in
  Array.iteri
    (fun v d ->
      let expected = if bfs.(v) < 0 then max_int else bfs.(v) in
      Alcotest.(check int) (Printf.sprintf "dist %d" v) expected d)
    dist

let test_dijkstra_weighted () =
  (* 0->1 cost 10; 0->2 cost 1, 2->1 cost 1: shortest 0->1 is 2. *)
  let g =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 1 };
        { Digraph.src = 0; dst = 2; capacity = 1 };
        { Digraph.src = 2; dst = 1; capacity = 1 };
      ]
  in
  let cost u v = if u = 0 && v = 1 then 10 else 1 in
  let dist, _ = Paths.dijkstra g ~cost 0 in
  Alcotest.(check int) "via 2" 2 dist.(1)

let test_diameter_path () =
  Alcotest.(check int) "diameter" 4 (Paths.diameter (path_graph 5))

let test_eccentricity () =
  let g = path_graph 5 in
  Alcotest.(check int) "center" 2 (Paths.eccentricity g 2);
  Alcotest.(check int) "end" 4 (Paths.eccentricity g 0)

let prop_diameter_bounds =
  QCheck.Test.make ~name:"diameter <= n-1 on connected graphs" ~count:100
    arbitrary_graph (fun g ->
      let d = Paths.diameter g in
      d >= 0 && d <= Digraph.vertex_count g - 1)

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let test_weak_components () =
  let g =
    Digraph.of_arcs ~vertex_count:4 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let comps = Components.weakly_connected_components g in
  Alcotest.(check int) "three weak comps" 3 (List.length comps);
  Alcotest.(check bool) "not weakly connected" false
    (Components.is_weakly_connected g)

let test_empty_graph_connectivity () =
  let g = Digraph.of_arcs ~vertex_count:0 [] in
  Alcotest.(check bool) "weakly" true (Components.is_weakly_connected g)

(* Vertex 0 reaches every vertex along arcs, and every vertex reaches
   vertex 0 (0 reaches it in the graph with every arc flipped). *)
let strongly_connected g =
  let flip (a : Digraph.arc) = { a with src = a.dst; dst = a.src } in
  let back =
    Digraph.of_arcs ~vertex_count:(Digraph.vertex_count g)
      (List.map flip (Digraph.arcs g))
  in
  let all_from g = Array.for_all Fun.id (Traversal.reachable g 0) in
  Digraph.vertex_count g <= 1 || (all_from g && all_from back)

(* A one-way path is weakly but not strongly connected. *)
let test_scc_dag () =
  let g =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 1 };
        { Digraph.src = 1; dst = 2; capacity = 1 };
      ]
  in
  Alcotest.(check bool) "not strongly connected" false (strongly_connected g);
  Alcotest.(check int) "one weak comp" 1
    (List.length (Components.weakly_connected_components g));
  Alcotest.(check bool) "weakly connected" true
    (Components.is_weakly_connected g)

let prop_undirected_graphs_strongly_connected =
  QCheck.Test.make ~name:"of_edges trees are strongly connected" ~count:100
    arbitrary_graph strongly_connected

(* ------------------------------------------------------------------ *)
(* Steiner                                                             *)
(* ------------------------------------------------------------------ *)

let test_steiner_direct () =
  let g = path_graph 4 in
  let t = Steiner.takahashi_matsuyama g ~sources:[ 0 ] ~terminals:[ 3 ] in
  Alcotest.(check bool) "covers" true (Steiner.covers_all t);
  Alcotest.(check int) "cost = path length" 3 (Steiner.cost t)

let test_steiner_shares_path () =
  (* Two leaves behind a shared stem: tree shares the stem, cost 3. *)
  let g = Digraph.of_edges ~vertex_count:4 [ (0, 1, 1); (1, 2, 1); (1, 3, 1) ] in
  let t = Steiner.takahashi_matsuyama g ~sources:[ 0 ] ~terminals:[ 2; 3 ] in
  Alcotest.(check bool) "covers" true (Steiner.covers_all t);
  Alcotest.(check int) "shared stem" 3 (Steiner.cost t)

let test_steiner_multi_source () =
  let g = path_graph 5 in
  let t = Steiner.takahashi_matsuyama g ~sources:[ 0; 4 ] ~terminals:[ 1; 3 ] in
  Alcotest.(check bool) "covers" true (Steiner.covers_all t);
  Alcotest.(check int) "two single hops" 2 (Steiner.cost t)

let test_steiner_terminal_is_source () =
  let g = path_graph 3 in
  let t = Steiner.takahashi_matsuyama g ~sources:[ 0 ] ~terminals:[ 0 ] in
  Alcotest.(check int) "free" 0 (Steiner.cost t);
  Alcotest.(check bool) "covered" true (Steiner.covers_all t)

let test_steiner_unreachable () =
  let g =
    Digraph.of_arcs ~vertex_count:3 [ { Digraph.src = 1; dst = 0; capacity = 1 } ]
  in
  let t = Steiner.takahashi_matsuyama g ~sources:[ 0 ] ~terminals:[ 2 ] in
  Alcotest.(check bool) "not covered" false (Steiner.covers_all t)

let test_steiner_no_sources () =
  Alcotest.check_raises "no sources" (Invalid_argument "Steiner: no sources")
    (fun () ->
      ignore
        (Steiner.takahashi_matsuyama (path_graph 2) ~sources:[] ~terminals:[ 1 ]))

let prop_steiner_covers_connected =
  QCheck.Test.make ~name:"steiner covers all terminals when connected"
    ~count:100 arbitrary_graph (fun g ->
      let n = Digraph.vertex_count g in
      let terminals = List.filter (fun v -> v mod 2 = 1) (Digraph.vertices g) in
      let t = Steiner.takahashi_matsuyama g ~sources:[ 0 ] ~terminals in
      Steiner.covers_all t && Steiner.cost t <= 3 * n)

(* The Takahashi–Matsuyama rounds as they were before distances were
   kept across rounds: a fresh multi-source BFS from the whole tree and
   a parent pass over every vertex per attached terminal.  Kept
   verbatim as the oracle for the incremental version. *)
let reference_takahashi_matsuyama g ~sources ~terminals =
  let n = Digraph.vertex_count g in
  let in_tree = Array.make n false in
  List.iter (fun s -> in_tree.(s) <- true) sources;
  let covered = Array.make n false in
  List.iter (fun t -> if in_tree.(t) then covered.(t) <- true) terminals;
  let tree_arcs = ref [] in
  let rec rounds () =
    match List.filter (fun t -> not covered.(t)) terminals with
    | [] -> ()
    | pending ->
      let tree_vertices =
        List.filter (fun v -> in_tree.(v)) (Digraph.vertices g)
      in
      let dist = Traversal.bfs_levels_multi g tree_vertices in
      let parent = Array.make n (-1) in
      let record_parent v =
        if dist.(v) > 0 then
          Digraph.View.iter
            (fun u _ ->
              if parent.(v) = -1 && dist.(u) >= 0 && dist.(u) = dist.(v) - 1
              then parent.(v) <- u)
            (Digraph.pred g v)
      in
      List.iter record_parent (Digraph.vertices g);
      let best =
        List.fold_left
          (fun acc t ->
            if dist.(t) < 0 then acc
            else
              match acc with
              | Some (_, d) when d <= dist.(t) -> acc
              | _ -> Some (t, dist.(t)))
          None pending
      in
      (match best with
      | None -> ()
      | Some (t, _) ->
        let rec absorb v =
          if not in_tree.(v) then begin
            in_tree.(v) <- true;
            let u = parent.(v) in
            tree_arcs := (u, v) :: !tree_arcs;
            absorb u
          end
        in
        absorb t;
        covered.(t) <- true;
        rounds ())
  in
  rounds ();
  (!tree_arcs, covered)

(* Directed, so terminals can be unreachable; sources and terminals
   repeat and overlap. *)
let steiner_case_gen =
  QCheck.Gen.(
    let* n = int_range 2 24 in
    let* arcs =
      list_size (int_range 0 (3 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    let* sources = list_size (int_range 1 3) (int_range 0 (n - 1)) in
    let* terminals = list_size (int_range 0 (n + 2)) (int_range 0 (n - 1)) in
    let arcs =
      List.filter_map
        (fun (src, dst) ->
          if src = dst then None else Some { Digraph.src; dst; capacity = 1 })
        arcs
    in
    return (Digraph.of_arcs ~vertex_count:n arcs, sources, terminals))

let prop_steiner_matches_reference =
  QCheck.Test.make ~name:"steiner = full-recompute reference" ~count:500
    (QCheck.make steiner_case_gen) (fun (g, sources, terminals) ->
      let t = Steiner.takahashi_matsuyama g ~sources ~terminals in
      let arcs, covered =
        reference_takahashi_matsuyama g ~sources ~terminals
      in
      t.Steiner.arcs = arcs && t.Steiner.covered = covered)

(* ------------------------------------------------------------------ *)
(* Dominating                                                          *)
(* ------------------------------------------------------------------ *)

(* [d] dominates [g] when every vertex is in [d] or has a neighbour,
   in either arc direction, in [d]. *)
let dominates g d =
  List.for_all
    (fun v ->
      List.mem v d || List.exists (fun u -> List.mem u d) (Digraph.neighbors g v))
    (Digraph.vertices g)

let test_dominating_star () =
  let g =
    Digraph.of_edges ~vertex_count:5 [ (0, 1, 1); (0, 2, 1); (0, 3, 1); (0, 4, 1) ]
  in
  Alcotest.(check (list int)) "minimum is the center" [ 0 ] (Dominating.minimum g);
  Alcotest.(check bool) "size 1 exists" true (Dominating.exists_of_size g 1);
  Alcotest.(check bool) "size 0 does not" false (Dominating.exists_of_size g 0)

let test_dominating_path () =
  (* Path of 6: minimum dominating set has size 2. *)
  let g = path_graph 6 in
  Alcotest.(check int) "minimum size" 2 (List.length (Dominating.minimum g));
  Alcotest.(check bool) "dominates" true
    (dominates g (Dominating.minimum g))

let prop_dominating_minimum_dominates =
  QCheck.Test.make ~name:"exact minimum dominates" ~count:60 arbitrary_graph
    (fun g -> dominates g (Dominating.minimum g))

(* ------------------------------------------------------------------ *)
(* Disjoint trees                                                      *)
(* ------------------------------------------------------------------ *)

(* No arc (parent, child) belongs to two trees of the forest. *)
let arc_disjoint forest =
  let arcs =
    List.concat_map
      (fun (t : Disjoint_trees.tree) ->
        List.concat
          (List.mapi (fun v p -> if p >= 0 then [ (p, v) ] else [])
             (Array.to_list t.parent)))
      forest
  in
  List.length (List.sort_uniq compare arcs) = List.length arcs

let test_disjoint_trees_k2 () =
  let g =
    Digraph.of_edges ~vertex_count:4
      [ (0, 1, 1); (0, 2, 1); (1, 3, 1); (2, 3, 1); (1, 2, 1) ]
  in
  let forest = Disjoint_trees.extract g ~root:0 ~k:2 in
  Alcotest.(check int) "two trees" 2 (List.length forest);
  Alcotest.(check bool) "arc disjoint" true (arc_disjoint forest)

let test_disjoint_trees_path_limit () =
  (* A bare path admits only one spanning tree from its end. *)
  let g = path_graph 4 in
  let forest = Disjoint_trees.extract g ~root:0 ~k:3 in
  Alcotest.(check int) "one tree" 1 (List.length forest)

let test_disjoint_trees_k0 () =
  Alcotest.(check int) "k=0" 0
    (List.length (Disjoint_trees.extract (path_graph 3) ~root:0 ~k:0))

let prop_disjoint_trees_are_disjoint =
  QCheck.Test.make ~name:"extracted forests are arc-disjoint" ~count:60
    arbitrary_graph (fun g ->
      arc_disjoint (Disjoint_trees.extract g ~root:0 ~k:3))

let () =
  Alcotest.run "ocd_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "degrees" `Quick test_digraph_degrees;
          Alcotest.test_case "merges multi-arcs" `Quick test_digraph_merges_multiarcs;
          Alcotest.test_case "rejects self-loop" `Quick test_digraph_rejects_self_loop;
          Alcotest.test_case "rejects bad capacity" `Quick
            test_digraph_rejects_bad_capacity;
          Alcotest.test_case "rejects out-of-range" `Quick
            test_digraph_rejects_out_of_range;
          Alcotest.test_case "of_edges bidirectional" `Quick
            test_digraph_of_edges_bidirectional;
          Alcotest.test_case "neighbors" `Quick test_digraph_neighbors;
          Alcotest.test_case "arcs listing" `Quick test_digraph_arcs_listing;
        ] );
      ( "csr",
        [
          Alcotest.test_case "view accessors" `Quick test_view_accessors;
          Alcotest.test_case "append merges duplicate" `Quick
            test_add_edges_merges_duplicate;
          Alcotest.test_case "append validates" `Quick test_add_edges_validates;
          Alcotest.test_case "arrays match of_edges" `Quick
            test_of_undirected_arrays_matches_of_edges;
          qtest prop_csr_matches_naive_directed;
          qtest prop_csr_matches_naive_undirected;
          qtest prop_append_equals_rebuild;
        ] );
      ( "traversal-paths",
        [
          Alcotest.test_case "bfs levels" `Quick test_bfs_levels;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_levels_unreachable;
          Alcotest.test_case "bfs multi-source" `Quick test_bfs_multi;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "dijkstra unit = bfs" `Quick
            test_dijkstra_unit_matches_bfs;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "diameter" `Quick test_diameter_path;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
          qtest prop_diameter_bounds;
        ] );
      ( "components",
        [
          Alcotest.test_case "weak components" `Quick test_weak_components;
          Alcotest.test_case "scc dag" `Quick test_scc_dag;
          Alcotest.test_case "empty graph" `Quick test_empty_graph_connectivity;
          qtest prop_undirected_graphs_strongly_connected;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "direct path" `Quick test_steiner_direct;
          Alcotest.test_case "shares stem" `Quick test_steiner_shares_path;
          Alcotest.test_case "multi-source" `Quick test_steiner_multi_source;
          Alcotest.test_case "terminal is source" `Quick
            test_steiner_terminal_is_source;
          Alcotest.test_case "unreachable terminal" `Quick test_steiner_unreachable;
          Alcotest.test_case "no sources raises" `Quick test_steiner_no_sources;
          qtest prop_steiner_covers_connected;
          qtest prop_steiner_matches_reference;
        ] );
      ( "dominating",
        [
          Alcotest.test_case "star" `Quick test_dominating_star;
          Alcotest.test_case "path" `Quick test_dominating_path;
          qtest prop_dominating_minimum_dominates;
        ] );
      ( "disjoint-trees",
        [
          Alcotest.test_case "k=2 diamond" `Quick test_disjoint_trees_k2;
          Alcotest.test_case "path limit" `Quick test_disjoint_trees_path_limit;
          Alcotest.test_case "k=0" `Quick test_disjoint_trees_k0;
          qtest prop_disjoint_trees_are_disjoint;
        ] );
    ]
