(* Tests for ocd_topology. *)

open Ocd_prelude
open Ocd_topology

let qtest = QCheck_alcotest.to_alcotest

(* Vertex 0 reaches every vertex along arcs, and every vertex reaches
   vertex 0 (0 reaches it in the graph with every arc flipped). *)
let strongly_connected g =
  let open Ocd_graph in
  let flip (a : Digraph.arc) = { a with src = a.dst; dst = a.src } in
  let back =
    Digraph.of_arcs ~vertex_count:(Digraph.vertex_count g)
      (List.map flip (Digraph.arcs g))
  in
  let all_from g = Array.for_all Fun.id (Traversal.reachable g 0) in
  Digraph.vertex_count g <= 1 || (all_from g && all_from back)

let test_weights_paper_default () =
  let rng = Prng.create ~seed:1 in
  for _ = 1 to 500 do
    let w = Weights.draw rng Weights.paper_default in
    Alcotest.(check bool) "3..15" true (w >= 3 && w <= 15)
  done

let test_weights_constant () =
  let rng = Prng.create ~seed:1 in
  Alcotest.(check int) "constant" 7 (Weights.draw rng (Weights.Constant 7))

let test_weights_invalid () =
  let rng = Prng.create ~seed:1 in
  Alcotest.check_raises "bad constant"
    (Invalid_argument "Weights: non-positive constant capacity") (fun () ->
      ignore (Weights.draw rng (Weights.Constant 0)));
  Alcotest.check_raises "bad uniform"
    (Invalid_argument "Weights: bad uniform bounds") (fun () ->
      ignore (Weights.draw rng (Weights.Uniform (5, 2))))

let test_weights_assign () =
  let rng = Prng.create ~seed:2 in
  let weighted = Weights.assign rng (Weights.Constant 4) [ (0, 1); (1, 2) ] in
  Alcotest.(check (list (triple int int int))) "assigned"
    [ (0, 1, 4); (1, 2, 4) ] weighted

let test_paper_p_value () =
  (* 2 ln 100 / 100 ≈ 0.0921 *)
  Alcotest.(check (float 1e-3)) "p(100)" 0.0921 (Random_graph.paper_p 100);
  Alcotest.(check (float 1e-9)) "p(1) clamps" 1.0 (Random_graph.paper_p 1)

let test_erdos_renyi_shape () =
  let rng = Prng.create ~seed:3 in
  let g = Random_graph.erdos_renyi rng ~n:100 () in
  Alcotest.(check int) "n" 100 (Ocd_graph.Digraph.vertex_count g);
  Alcotest.(check bool) "connected" true
    (strongly_connected g);
  (* ~ n^2/2 * p = ~460 undirected edges → ~920 arcs; very loose band *)
  let arcs = Ocd_graph.Digraph.arc_count g in
  Alcotest.(check bool) "edge count plausible" true (arcs > 300 && arcs < 2000)

let test_erdos_renyi_deterministic () =
  let g1 = Random_graph.erdos_renyi (Prng.create ~seed:4) ~n:50 () in
  let g2 = Random_graph.erdos_renyi (Prng.create ~seed:4) ~n:50 () in
  Alcotest.(check int) "same arc count" (Ocd_graph.Digraph.arc_count g1)
    (Ocd_graph.Digraph.arc_count g2);
  Alcotest.(check bool) "same arcs" true
    (Ocd_graph.Digraph.arcs g1 = Ocd_graph.Digraph.arcs g2)

let test_erdos_renyi_p_zero_repairs () =
  let rng = Prng.create ~seed:5 in
  let g = Random_graph.erdos_renyi rng ~n:10 ~p:0.0 () in
  (* p = 0 leaves isolated vertices; repair must chain them. *)
  Alcotest.(check bool) "connected after repair" true
    (Ocd_graph.Components.is_weakly_connected g)

let test_waxman_connected () =
  let rng = Prng.create ~seed:7 in
  let g = Random_graph.waxman rng ~n:60 () in
  Alcotest.(check bool) "connected" true
    (strongly_connected g)

let test_transit_stub_default_size () =
  Alcotest.(check int) "200 vertices" 200
    (Transit_stub.vertex_total Transit_stub.default_params)

let test_transit_stub_generate () =
  let rng = Prng.create ~seed:8 in
  let g = Transit_stub.generate rng Transit_stub.default_params in
  Alcotest.(check int) "n" 200 (Ocd_graph.Digraph.vertex_count g);
  Alcotest.(check bool) "connected" true
    (strongly_connected g)

let test_transit_stub_for_size () =
  List.iter
    (fun n ->
      let p = Transit_stub.params_for_size n in
      let total = Transit_stub.vertex_total p in
      (* within one stub-domain round-up of the request *)
      Alcotest.(check bool)
        (Printf.sprintf "size %d ~ %d" n total)
        true
        (total >= n && total <= n + 32))
    [ 50; 100; 200; 400; 1000 ]

let test_transit_stub_stub_degree_low () =
  (* Stub vertices should have much lower degree than transit ones on
     average — the hierarchy the figures depend on. *)
  let rng = Prng.create ~seed:9 in
  let p = Transit_stub.default_params in
  let g = Transit_stub.generate rng p in
  let transit_n = p.Transit_stub.transit_domains * p.Transit_stub.transit_nodes in
  let mean_degree vs =
    let degree v = Ocd_graph.Digraph.(View.length (succ g v)) in
    let sum = List.fold_left (fun a v -> a + degree v) 0 vs in
    float_of_int sum /. float_of_int (List.length vs)
  in
  let transit = List.init transit_n Fun.id in
  let stubs = List.init (200 - transit_n) (fun i -> transit_n + i) in
  Alcotest.(check bool) "transit fatter" true
    (mean_degree transit > 1.2 *. mean_degree stubs)

let test_topology_kinds () =
  Alcotest.(check int) "three kinds" 3 (List.length Topology.all_kinds);
  List.iter
    (fun k ->
      Alcotest.(check bool) "roundtrip" true
        (Topology.kind_of_name (Topology.kind_name k) = Some k))
    Topology.all_kinds;
  Alcotest.(check bool) "unknown" true (Topology.kind_of_name "nope" = None)

let test_topology_generate_all_kinds () =
  List.iter
    (fun k ->
      let rng = Prng.create ~seed:10 in
      let g = Topology.generate rng k ~n:64 in
      Alcotest.(check bool)
        (Topology.kind_name k ^ " connected")
        true
        (strongly_connected g);
      Alcotest.(check bool)
        (Topology.kind_name k ^ " sized")
        true
        (Ocd_graph.Digraph.vertex_count g >= 64))
    Topology.all_kinds

let prop_er_capacities_in_range =
  QCheck.Test.make ~name:"all capacities within the paper's [3,15]" ~count:30
    QCheck.(int_range 5 60)
    (fun n ->
      let rng = Prng.create ~seed:n in
      let g = Random_graph.erdos_renyi rng ~n () in
      List.for_all
        (fun a -> a.Ocd_graph.Digraph.capacity >= 3 && a.Ocd_graph.Digraph.capacity <= 15)
        (Ocd_graph.Digraph.arcs g))

let prop_er_connected_across_seeds =
  QCheck.Test.make ~name:"generated graphs always strongly connected"
    ~count:50
    QCheck.(pair (int_range 5 80) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Prng.create ~seed in
      strongly_connected
        (Random_graph.erdos_renyi rng ~n ()))

(* ---- skip samplers and bulk CSR builds, at paper size and at scale ---- *)

(* A large instance for the skip samplers and bulk CSR builds: enough
   vertices that a wrong skip recurrence shows in the arc count. *)
let skip_n = 3000

let test_er_skip_expected_degree () =
  List.iter
    (fun n ->
      let rng = Prng.create ~seed:11 in
      let g = Random_graph.erdos_renyi rng ~n () in
      let p = Random_graph.paper_p n in
      let expected = float_of_int (n * (n - 1)) *. p in
      let arcs = float_of_int (Ocd_graph.Digraph.arc_count g) in
      (* mean degree within 10% of p(n-1): loose enough for one sample,
         tight enough to catch an off-by-one in the skip recurrence *)
      Alcotest.(check bool)
        (Printf.sprintf "n=%d arc count %.0f ~ %.0f" n arcs expected)
        true
        (Float.abs (arcs -. expected) < 0.1 *. expected))
    [ 200; skip_n ]

let test_er_skip_deterministic () =
  let g1 = Random_graph.erdos_renyi (Prng.create ~seed:12) ~n:skip_n () in
  let g2 = Random_graph.erdos_renyi (Prng.create ~seed:12) ~n:skip_n () in
  Alcotest.(check bool) "same arcs" true
    (Ocd_graph.Digraph.arcs g1 = Ocd_graph.Digraph.arcs g2);
  Alcotest.(check bool) "connected" true
    (strongly_connected g1)

let test_waxman_skip_deterministic () =
  List.iter
    (fun n ->
      let g1 = Random_graph.waxman (Prng.create ~seed:13) ~n () in
      let g2 = Random_graph.waxman (Prng.create ~seed:13) ~n () in
      Alcotest.(check int) "sized" n (Ocd_graph.Digraph.vertex_count g1);
      Alcotest.(check bool) "same arcs" true
        (Ocd_graph.Digraph.arcs g1 = Ocd_graph.Digraph.arcs g2);
      Alcotest.(check bool) "connected" true
        (strongly_connected g1))
    [ 200; skip_n ]

(* Order-sensitive checksum over every [(src, dst, capacity)] arc —
   all of them, unlike [Hashtbl.hash], which samples only a prefix of
   a long list. *)
let arc_checksum g =
  let mix h x = ((h * 1_000_003) lxor x) land max_int in
  List.fold_left
    (fun h (a : Ocd_graph.Digraph.arc) -> mix (mix (mix h a.src) a.dst) a.capacity)
    (Ocd_graph.Digraph.arc_count g)
    (Ocd_graph.Digraph.arcs g)

(* Pins the exact seed streams of the scale samplers: a change to the
   draw order or to a skip recurrence changes these graphs silently,
   so any difference here must be deliberate. *)
let test_stream_pin () =
  let pin name expected g =
    Alcotest.(check int) name expected (arc_checksum g)
  in
  pin "erdos-renyi n=3000" 1301383629389165766
    (Random_graph.erdos_renyi (Prng.create ~seed:21) ~n:skip_n ());
  pin "waxman n=3000" 2798816989280665868
    (Random_graph.waxman (Prng.create ~seed:22) ~n:skip_n ());
  pin "transit-stub n=10000" 55943894190606390
    (Transit_stub.generate (Prng.create ~seed:23)
       (Transit_stub.params_for_size 10_000))

let test_transit_stub_for_size_bulk () =
  List.iter
    (fun n ->
      let p = Transit_stub.params_for_size n in
      let total = Transit_stub.vertex_total p in
      (* one per-anchor round-up: transit_count * stub_nodes = 8 * 32 *)
      Alcotest.(check bool)
        (Printf.sprintf "size %d ~ %d" n total)
        true
        (total >= n && total <= n + 256))
    [ 5000; 20_000; 100_000 ]

let test_transit_stub_bulk_generate () =
  List.iter
    (fun n ->
      let p = Transit_stub.params_for_size n in
      let g1 = Transit_stub.generate (Prng.create ~seed:16) p in
      let g2 = Transit_stub.generate (Prng.create ~seed:16) p in
      Alcotest.(check bool) "sized" true
        (Ocd_graph.Digraph.vertex_count g1 >= n);
      Alcotest.(check bool) "connected" true
        (strongly_connected g1);
      Alcotest.(check bool) "deterministic" true
        (Ocd_graph.Digraph.arcs g1 = Ocd_graph.Digraph.arcs g2))
    [ 200; 10_000 ]

(* CSR views on generated topologies must agree with the arc list (the
   differential counterpart of the raw-input tests in test_graph). *)
let views_match_arcs g =
  let n = Ocd_graph.Digraph.vertex_count g in
  let arcs = Ocd_graph.Digraph.arcs g in
  let succ_ref = Array.make n [] and pred_ref = Array.make n [] in
  List.iter
    (fun a ->
      let open Ocd_graph.Digraph in
      succ_ref.(a.src) <- (a.dst, a.capacity) :: succ_ref.(a.src);
      pred_ref.(a.dst) <- (a.src, a.capacity) :: pred_ref.(a.dst))
    (List.rev arcs);
  let by_fst (a, _) (b, _) = Int.compare a b in
  let ok = ref true in
  for v = 0 to n - 1 do
    let succ =
      Ocd_graph.Digraph.(View.to_array (succ g v)) |> Array.to_list
    in
    let pred =
      Ocd_graph.Digraph.(View.to_array (pred g v)) |> Array.to_list
    in
    if succ <> List.sort by_fst succ_ref.(v) then ok := false;
    if pred <> List.sort by_fst pred_ref.(v) then ok := false
  done;
  !ok

let prop_er_views_match_arcs =
  QCheck.Test.make ~name:"CSR views match arc list on ER graphs" ~count:30
    QCheck.(pair (int_range 5 80) (int_range 0 1000))
    (fun (n, seed) ->
      views_match_arcs (Random_graph.erdos_renyi (Prng.create ~seed) ~n ()))

let prop_transit_stub_views_match_arcs =
  QCheck.Test.make ~name:"CSR views match arc list on transit-stub graphs"
    ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      views_match_arcs
        (Transit_stub.generate (Prng.create ~seed) Transit_stub.default_params))

let prop_transit_stub_connected =
  QCheck.Test.make ~name:"transit-stub graphs always connected" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Prng.create ~seed in
      strongly_connected
        (Transit_stub.generate rng Transit_stub.default_params))

let () =
  Alcotest.run "ocd_topology"
    [
      ( "weights",
        [
          Alcotest.test_case "paper default range" `Quick test_weights_paper_default;
          Alcotest.test_case "constant" `Quick test_weights_constant;
          Alcotest.test_case "invalid" `Quick test_weights_invalid;
          Alcotest.test_case "assign" `Quick test_weights_assign;
        ] );
      ( "random-graph",
        [
          Alcotest.test_case "paper p" `Quick test_paper_p_value;
          Alcotest.test_case "erdos-renyi shape" `Quick test_erdos_renyi_shape;
          Alcotest.test_case "deterministic" `Quick test_erdos_renyi_deterministic;
          Alcotest.test_case "p=0 repaired" `Quick test_erdos_renyi_p_zero_repairs;
          Alcotest.test_case "waxman connected" `Quick test_waxman_connected;
          qtest prop_er_capacities_in_range;
          qtest prop_er_connected_across_seeds;
          qtest prop_er_views_match_arcs;
        ] );
      ( "scale",
        [
          Alcotest.test_case "er skip expected degree" `Quick
            test_er_skip_expected_degree;
          Alcotest.test_case "er skip deterministic" `Quick
            test_er_skip_deterministic;
          Alcotest.test_case "waxman skip deterministic" `Quick
            test_waxman_skip_deterministic;
          Alcotest.test_case "params for size (bulk)" `Quick
            test_transit_stub_for_size_bulk;
          Alcotest.test_case "bulk generate" `Quick
            test_transit_stub_bulk_generate;
          Alcotest.test_case "stream pin" `Quick test_stream_pin;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "default size 200" `Quick test_transit_stub_default_size;
          Alcotest.test_case "generate" `Quick test_transit_stub_generate;
          Alcotest.test_case "params for size" `Quick test_transit_stub_for_size;
          Alcotest.test_case "stub degree low" `Quick
            test_transit_stub_stub_degree_low;
          qtest prop_transit_stub_connected;
          qtest prop_transit_stub_views_match_arcs;
        ] );
      ( "facade",
        [
          Alcotest.test_case "kinds" `Quick test_topology_kinds;
          Alcotest.test_case "generate all" `Quick test_topology_generate_all_kinds;
        ] );
    ]
