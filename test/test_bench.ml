(* Tests for ocd_bench: Report and Sweep. *)

open Ocd_prelude
open Ocd_core

let test_report_row_mismatch () =
  let t = Ocd_bench.Report.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Report.row: cell count mismatch") (fun () ->
      Ocd_bench.Report.row t [ "only-one" ])

let test_report_renders () =
  let t = Ocd_bench.Report.create ~title:"demo table" ~columns:[ "x"; "y" ] in
  Ocd_bench.Report.row t [ "1"; "alpha" ];
  Ocd_bench.Report.row t [ "2"; "beta" ];
  (* rendering goes to stdout; the test asserts it does not raise *)
  Ocd_bench.Report.render t;
  Ocd_bench.Report.section "section";
  Ocd_bench.Report.note "a note with %d" 42

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_report_to_string () =
  let t = Ocd_bench.Report.create ~title:"pure table" ~columns:[ "x"; "y" ] in
  Ocd_bench.Report.row t [ "1"; "alpha" ];
  Ocd_bench.Report.row t [ "22"; "b" ];
  let s = Ocd_bench.Report.to_string t in
  Alcotest.(check bool) "title line" true (contains ~needle:"-- pure table\n" s);
  Alcotest.(check bool) "aligned row" true (contains ~needle:"  1   alpha  " s);
  Alcotest.(check bool) "csv row 1" true
    (contains ~needle:"csv,pure table,1,alpha\n" s);
  Alcotest.(check bool) "csv row 2" true
    (contains ~needle:"csv,pure table,22,b\n" s);
  (* pure rendering is stable and side-effect free *)
  Alcotest.(check string) "idempotent" s (Ocd_bench.Report.to_string t)

let test_csv_escape () =
  let esc = Ocd_bench.Report.csv_escape in
  Alcotest.(check string) "plain passes through" "plain-42" (esc "plain-42");
  Alcotest.(check string) "spaces unquoted" "two words" (esc "two words");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (esc "a,b");
  Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\"" (esc "say \"hi\"");
  Alcotest.(check string) "newline quoted" "\"l1\nl2\"" (esc "l1\nl2");
  Alcotest.(check string) "cr quoted" "\"a\rb\"" (esc "a\rb")

let test_csv_cells_escaped_in_output () =
  let t =
    Ocd_bench.Report.create ~title:"commas, everywhere" ~columns:[ "k"; "v" ]
  in
  Ocd_bench.Report.row t [ "a,b"; "plain" ];
  let s = Ocd_bench.Report.to_string t in
  Alcotest.(check bool) "title and cell escaped" true
    (contains ~needle:"csv,\"commas, everywhere\",\"a,b\",plain\n" s)

let test_sweep_run_point () =
  let strategies =
    [ Ocd_heuristics.Local_rarest.strategy; Ocd_heuristics.Random_push.strategy ]
  in
  let point =
    Ocd_bench.Sweep.run_point ~trials:2 ~seed:77 ~strategies ~x_label:"p"
      (fun rng ->
        let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:15 ~p:0.4 () in
        (Scenario.single_file rng ~graph:g ~tokens:5 ()).Scenario.instance)
  in
  Alcotest.(check string) "label" "p" point.Ocd_bench.Sweep.x_label;
  Alcotest.(check int) "aggregates per strategy" 2
    (List.length point.Ocd_bench.Sweep.aggregates);
  List.iter
    (fun a ->
      Alcotest.(check int) "trials completed" 2 a.Ocd_bench.Sweep.completed;
      Alcotest.(check int) "trials recorded" 2
        (Option.get a.Ocd_bench.Sweep.moves).Stats.count;
      Alcotest.(check bool) "bandwidth >= lb" true
        (a.Ocd_bench.Sweep.bandwidth.Stats.mean
        >= float_of_int point.Ocd_bench.Sweep.bandwidth_lb))
    point.Ocd_bench.Sweep.aggregates

let test_sweep_deterministic () =
  let build rng =
    let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:12 ~p:0.4 () in
    (Scenario.single_file rng ~graph:g ~tokens:4 ()).Scenario.instance
  in
  let point () =
    Ocd_bench.Sweep.run_point ~trials:2 ~seed:99
      ~strategies:[ Ocd_heuristics.Random_push.strategy ] ~x_label:"d" build
  in
  let a = point () and b = point () in
  let mean p =
    (List.hd p.Ocd_bench.Sweep.aggregates).Ocd_bench.Sweep.bandwidth.Stats.mean
  in
  Alcotest.(check (float 1e-9)) "same seed, same result" (mean a) (mean b)

let test_sweep_jobs_deterministic () =
  (* the tentpole guarantee: the sweep output is byte-identical no
     matter how many domains it ran on *)
  let build rng =
    let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:14 ~p:0.4 () in
    (Scenario.single_file rng ~graph:g ~tokens:5 ()).Scenario.instance
  in
  let strategies =
    [ Ocd_heuristics.Local_rarest.strategy; Ocd_heuristics.Random_push.strategy ]
  in
  let render points =
    Ocd_bench.Report.to_string
      (Ocd_bench.Sweep.table ~title:"jobs determinism" ~x_column:"x" points)
  in
  let point jobs =
    Ocd_bench.Sweep.run_point ~trials:3 ~jobs ~seed:123 ~strategies
      ~x_label:"j" build
  in
  let reference = render [ point 1 ] in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "run_point jobs=%d" jobs)
        reference
        (render [ point jobs ]))
    [ 2; 4 ];
  let specs =
    List.map
      (fun i ->
        { Ocd_bench.Sweep.label = string_of_int i; point_seed = 400 + i; build })
      [ 0; 1; 2 ]
  in
  let sweep jobs =
    render (Ocd_bench.Sweep.run_sweep ~trials:2 ~jobs ~strategies specs)
  in
  Alcotest.(check string) "run_sweep jobs=1 vs jobs=3" (sweep 1) (sweep 3)

let test_sweep_unsat_makespan_lb () =
  (* two isolated vertices: vertex 1 wants a token it can never get,
     so the §5.1 makespan bound must surface as n/a, not 0 *)
  let g = Ocd_graph.Digraph.of_edges ~vertex_count:2 [] in
  let inst =
    Instance.make ~graph:g ~token_count:1 ~have:[ (0, [ 0 ]) ]
      ~want:[ (1, [ 0 ]) ]
  in
  let point =
    Ocd_bench.Sweep.run_point ~trials:1 ~seed:1 ~strategies:[] ~x_label:"u"
      (fun _ -> inst)
  in
  Alcotest.(check bool) "makespan_lb is None" true (point.Ocd_bench.Sweep.makespan_lb = None)

let test_sweep_table_renders_na () =
  let summary = Stats.summarize [ 1.0 ] in
  let point =
    {
      Ocd_bench.Sweep.x_label = "u";
      bandwidth_lb = 3;
      makespan_lb = None;
      aggregates =
        [
          {
            Ocd_bench.Sweep.strategy = "s";
            completed = 1;
            moves = Some summary;
            bandwidth = summary;
            pruned = summary;
          };
        ];
    }
  in
  let s =
    Ocd_bench.Report.to_string
      (Ocd_bench.Sweep.table ~title:"t" ~x_column:"x" [ point ])
  in
  Alcotest.(check bool) "n/a dash in csv" true
    (contains ~needle:"csv,t,u,s,1.0,1,1,3,-\n" s)

let test_sweep_stall_renders_na () =
  (* an idle strategy never completes: the point must still aggregate
     (bandwidth 0) and render its moves cell as n/a, not crash *)
  let idle = Ocd_engine.Strategy.stateless ~name:"idle" (fun _ -> []) in
  let point =
    Ocd_bench.Sweep.run_point ~trials:2 ~seed:5 ~strategies:[ idle ]
      ~x_label:"s" (fun rng ->
        let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:8 ~p:0.5 () in
        (Scenario.single_file rng ~graph:g ~tokens:3 ()).Scenario.instance)
  in
  let a = List.hd point.Ocd_bench.Sweep.aggregates in
  Alcotest.(check int) "no trial completed" 0 a.Ocd_bench.Sweep.completed;
  Alcotest.(check bool) "no makespan summary" true
    (a.Ocd_bench.Sweep.moves = None);
  let s =
    Ocd_bench.Report.to_string
      (Ocd_bench.Sweep.table ~title:"t" ~x_column:"x" [ point ])
  in
  Alcotest.(check bool) "moves cell is n/a" true
    (contains ~needle:"csv,t,s,idle,n/a,0,0," s)

let () =
  Alcotest.run "ocd_bench"
    [
      ( "report",
        [
          Alcotest.test_case "row mismatch" `Quick test_report_row_mismatch;
          Alcotest.test_case "renders" `Quick test_report_renders;
          Alcotest.test_case "to_string" `Quick test_report_to_string;
          Alcotest.test_case "csv escape" `Quick test_csv_escape;
          Alcotest.test_case "csv cells escaped" `Quick
            test_csv_cells_escaped_in_output;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "run_point" `Quick test_sweep_run_point;
          Alcotest.test_case "deterministic" `Quick test_sweep_deterministic;
          Alcotest.test_case "jobs deterministic" `Quick
            test_sweep_jobs_deterministic;
          Alcotest.test_case "unsat makespan lb" `Quick
            test_sweep_unsat_makespan_lb;
          Alcotest.test_case "n/a rendering" `Quick test_sweep_table_renders_na;
          Alcotest.test_case "stall renders n/a" `Quick
            test_sweep_stall_renders_na;
        ] );
    ]
