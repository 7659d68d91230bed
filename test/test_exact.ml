(* Tests for ocd_exact: Search, Simplex, Ilp, Ip_formulation,
   Reduction, Adversary. *)

open Ocd_prelude
open Ocd_core
open Ocd_graph
open Ocd_exact

let qtest = QCheck_alcotest.to_alcotest

let line () =
  let graph =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 2 };
        { Digraph.src = 1; dst = 2; capacity = 2 };
      ]
  in
  Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
    ~want:[ (2, [ 0; 1 ]) ]

let solved = function
  | Search.Solved s -> s
  | Search.Unsatisfiable -> Alcotest.fail "unexpected Unsatisfiable"
  | Search.Budget_exceeded -> Alcotest.fail "unexpected Budget_exceeded"

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let test_focd_line () =
  let s = solved (Search.focd (line ())) in
  Alcotest.(check int) "makespan 2" 2 s.Search.objective;
  Alcotest.(check bool) "witness valid" true
    (Validate.check_successful (line ()) s.Search.schedule = Ok ())

let test_focd_trivial () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check int) "0 steps" 0 (solved (Search.focd inst)).Search.objective

let test_focd_unsatisfiable () =
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (1, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check bool) "unsat" true (Search.focd inst = Search.Unsatisfiable)

let test_focd_capacity_bound () =
  (* 3 tokens over a capacity-1 arc: 3 steps. *)
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:3 ~have:[ (0, [ 0; 1; 2 ]) ]
      ~want:[ (1, [ 0; 1; 2 ]) ]
  in
  Alcotest.(check int) "3 steps" 3 (solved (Search.focd inst)).Search.objective

let test_focd_budget () =
  let inst = line () in
  Alcotest.(check bool) "tiny budget trips" true
    (Search.focd ~max_states:0 inst = Search.Budget_exceeded)

let test_eocd_line () =
  let s = solved (Search.eocd (line ())) in
  Alcotest.(check int) "4 moves" 4 s.Search.objective;
  Alcotest.(check bool) "witness valid" true
    (Validate.check_successful (line ()) s.Search.schedule = Ok ())

let test_eocd_horizon_tension () =
  (* Figure 1: minimum bandwidth is 4 (3 steps); restricted to 2 steps
     it rises to 5. *)
  let inst = Figure1.instance () in
  Alcotest.(check int) "unbounded" 4 (solved (Search.eocd inst)).Search.objective;
  Alcotest.(check int) "horizon 3" 4
    (solved (Search.eocd ~horizon:3 inst)).Search.objective;
  Alcotest.(check int) "horizon 2" 5
    (solved (Search.eocd ~horizon:2 inst)).Search.objective;
  Alcotest.(check bool) "horizon 1 unsat" true
    (Search.eocd ~horizon:1 inst = Search.Unsatisfiable)

let test_focd_figure1 () =
  Alcotest.(check int) "figure1 FOCD = 2" 2
    (solved (Search.focd (Figure1.instance ()))).Search.objective

let test_eocd_bandwidth_is_deficit_on_direct_graphs () =
  (* Star: source adjacent to every wanter → EOCD = deficit. *)
  let graph =
    Digraph.of_edges ~vertex_count:4 [ (0, 1, 2); (0, 2, 2); (0, 3, 2) ]
  in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (1, [ 0; 1 ]); (2, [ 0 ]); (3, [ 1 ]) ]
  in
  Alcotest.(check int) "deficit 4" 4 (solved (Search.eocd inst)).Search.objective

(* Cross-validation: on random tiny instances FOCD(makespan) must be
   consistent with EOCD horizons: EOCD at horizon = FOCD makespan is
   solvable, below it is not. *)
let tiny_instance_gen =
  QCheck.Gen.(
    let* seed = int_range 0 3000 in
    let rng = Prng.create ~seed in
    let n = 3 + Prng.int rng 2 in
    let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.5
        ~weights:(Ocd_topology.Weights.Uniform (1, 2)) () in
    let tokens = 1 + Prng.int rng 2 in
    let sc = Scenario.single_file rng ~graph:g ~tokens ~source:0 () in
    return sc.Scenario.instance)

let prop_focd_eocd_consistent =
  QCheck.Test.make ~name:"FOCD horizon is the EOCD feasibility threshold"
    ~count:25 (QCheck.make tiny_instance_gen) (fun inst ->
      match Search.focd ~max_states:50_000 inst with
      | Search.Solved { objective = tau; _ } ->
        let feasible_at h =
          match Search.eocd ~max_states:50_000 ~horizon:h inst with
          | Search.Solved _ -> true
          | Search.Unsatisfiable -> false
          | Search.Budget_exceeded -> QCheck.assume_fail ()
        in
        feasible_at tau && (tau = 0 || not (feasible_at (tau - 1)))
      | _ -> QCheck.assume_fail ())

let prop_focd_geq_lower_bound =
  QCheck.Test.make ~name:"FOCD optimum >= §5.1 lower bound" ~count:25
    (QCheck.make tiny_instance_gen) (fun inst ->
      match Search.focd ~max_states:50_000 inst with
      | Search.Solved { objective; _ } ->
        objective >= Bounds.makespan_lower_bound inst
      | _ -> QCheck.assume_fail ())

let prop_eocd_geq_deficit =
  QCheck.Test.make ~name:"EOCD optimum >= total deficit" ~count:25
    (QCheck.make tiny_instance_gen) (fun inst ->
      match Search.eocd ~max_states:50_000 inst with
      | Search.Solved { objective; _ } ->
        objective >= Instance.total_deficit inst
      | _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)
(* ------------------------------------------------------------------ *)

let test_simplex_basic_min () =
  (* min x + y st x + y >= 2, x >= 0, y >= 0 → 2 *)
  let p =
    {
      Simplex.var_count = 2;
      objective = [| 1.0; 1.0 |];
      constraints =
        [ { Simplex.coeffs = [| 1.0; 1.0 |]; relation = Simplex.Ge; rhs = 2.0 } ];
    }
  in
  match Simplex.minimize p with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "objective" 2.0 objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_bounded_box () =
  (* min -x - 2y st x <= 3, y <= 4 → -11 at (3,4) *)
  let p =
    {
      Simplex.var_count = 2;
      objective = [| -1.0; -2.0 |];
      constraints =
        [
          { Simplex.coeffs = [| 1.0; 0.0 |]; relation = Simplex.Le; rhs = 3.0 };
          { Simplex.coeffs = [| 0.0; 1.0 |]; relation = Simplex.Le; rhs = 4.0 };
        ];
    }
  in
  match Simplex.minimize p with
  | Simplex.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "objective" (-11.0) objective;
    Alcotest.(check (float 1e-6)) "x" 3.0 solution.(0);
    Alcotest.(check (float 1e-6)) "y" 4.0 solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality () =
  (* min x st x = 5 *)
  let p =
    {
      Simplex.var_count = 1;
      objective = [| 1.0 |];
      constraints =
        [ { Simplex.coeffs = [| 1.0 |]; relation = Simplex.Eq; rhs = 5.0 } ];
    }
  in
  match Simplex.minimize p with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "objective" 5.0 objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  (* x <= 1 and x >= 2 *)
  let p =
    {
      Simplex.var_count = 1;
      objective = [| 1.0 |];
      constraints =
        [
          { Simplex.coeffs = [| 1.0 |]; relation = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [| 1.0 |]; relation = Simplex.Ge; rhs = 2.0 };
        ];
    }
  in
  Alcotest.(check bool) "infeasible" true (Simplex.minimize p = Simplex.Infeasible)

let test_simplex_unbounded () =
  (* min -x st x >= 0 (no upper bound) *)
  let p = { Simplex.var_count = 1; objective = [| -1.0 |]; constraints = [] } in
  Alcotest.(check bool) "unbounded" true (Simplex.minimize p = Simplex.Unbounded)

let test_simplex_negative_rhs_normalisation () =
  (* -x <= -3  ⟺  x >= 3 *)
  let p =
    {
      Simplex.var_count = 1;
      objective = [| 1.0 |];
      constraints =
        [ { Simplex.coeffs = [| -1.0 |]; relation = Simplex.Le; rhs = -3.0 } ];
    }
  in
  match Simplex.minimize p with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "objective 3" 3.0 objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate_redundant () =
  (* Redundant equalities exercise artificial purging. *)
  let p =
    {
      Simplex.var_count = 2;
      objective = [| 1.0; 1.0 |];
      constraints =
        [
          { Simplex.coeffs = [| 1.0; 1.0 |]; relation = Simplex.Eq; rhs = 2.0 };
          { Simplex.coeffs = [| 2.0; 2.0 |]; relation = Simplex.Eq; rhs = 4.0 };
        ];
    }
  in
  match Simplex.minimize p with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "objective 2" 2.0 objective
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Ilp                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ilp_knapsack_like () =
  (* min x0 + x1 + x2 st x0 + x1 >= 1, x1 + x2 >= 1, x0 + x2 >= 1:
     vertex cover of a triangle → 2. *)
  let row a b c = [| a; b; c |] in
  match
    Ilp.minimize ~var_count:3 ~objective:[| 1; 1; 1 |]
      ~constraints:
        [
          { Simplex.coeffs = row 1.0 1.0 0.0; relation = Simplex.Ge; rhs = 1.0 };
          { Simplex.coeffs = row 0.0 1.0 1.0; relation = Simplex.Ge; rhs = 1.0 };
          { Simplex.coeffs = row 1.0 0.0 1.0; relation = Simplex.Ge; rhs = 1.0 };
        ]
      ()
  with
  | Ilp.Optimal { objective; solution } ->
    Alcotest.(check int) "triangle cover" 2 objective;
    Alcotest.(check int) "two chosen" 2
      (Array.fold_left (fun a b -> if b then a + 1 else a) 0 solution)
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_forced_integrality () =
  (* LP relaxation of the triangle cover is 1.5; ILP must reach 2. *)
  let row a b c = [| a; b; c |] in
  let constraints =
    [
      { Simplex.coeffs = row 1.0 1.0 0.0; relation = Simplex.Ge; rhs = 1.0 };
      { Simplex.coeffs = row 0.0 1.0 1.0; relation = Simplex.Ge; rhs = 1.0 };
      { Simplex.coeffs = row 1.0 0.0 1.0; relation = Simplex.Ge; rhs = 1.0 };
    ]
  in
  let lp =
    Simplex.minimize
      {
        Simplex.var_count = 3;
        objective = [| 1.0; 1.0; 1.0 |];
        constraints =
          constraints
          @ List.init 3 (fun j ->
                let coeffs = Array.make 3 0.0 in
                coeffs.(j) <- 1.0;
                { Simplex.coeffs; relation = Simplex.Le; rhs = 1.0 });
      }
  in
  (match lp with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "fractional LP" 1.5 objective
  | _ -> Alcotest.fail "LP should be optimal");
  match Ilp.minimize ~var_count:3 ~objective:[| 1; 1; 1 |] ~constraints () with
  | Ilp.Optimal { objective; _ } -> Alcotest.(check int) "ILP rounds up" 2 objective
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_infeasible () =
  match
    Ilp.minimize ~var_count:1 ~objective:[| 1 |]
      ~constraints:
        [ { Simplex.coeffs = [| 1.0 |]; relation = Simplex.Ge; rhs = 2.0 } ]
      ()
  with
  | Ilp.Infeasible -> ()
  | _ -> Alcotest.fail "x <= 1 cannot reach 2"

(* Cross-check the whole simplex+B&B stack against exhaustive
   enumeration of all 0/1 assignments on random small programs. *)
let random_ilp_gen =
  QCheck.Gen.(
    let* seed = int_range 0 5_000 in
    let rng = Prng.create ~seed in
    let vars = 2 + Prng.int rng 4 in
    let constraints = 1 + Prng.int rng 4 in
    let objective = Array.init vars (fun _ -> Prng.int rng 5) in
    let rows =
      List.init constraints (fun _ ->
          let coeffs =
            Array.init vars (fun _ -> float_of_int (Prng.int_in rng (-2) 3))
          in
          let relation =
            match Prng.int rng 3 with
            | 0 -> Simplex.Le
            | 1 -> Simplex.Ge
            | _ -> Simplex.Eq
          in
          let rhs = float_of_int (Prng.int_in rng (-2) 4) in
          { Simplex.coeffs; relation; rhs })
    in
    return (vars, objective, rows))

let brute_force_ilp vars objective constraints =
  let best = ref None in
  for mask = 0 to (1 lsl vars) - 1 do
    let x = Array.init vars (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0) in
    let feasible =
      List.for_all
        (fun { Simplex.coeffs; relation; rhs } ->
          let lhs = ref 0.0 in
          Array.iteri (fun j c -> lhs := !lhs +. (c *. x.(j))) coeffs;
          match relation with
          | Simplex.Le -> !lhs <= rhs +. 1e-9
          | Simplex.Ge -> !lhs >= rhs -. 1e-9
          | Simplex.Eq -> Float.abs (!lhs -. rhs) < 1e-9)
        constraints
    in
    if feasible then begin
      let value = ref 0 in
      Array.iteri (fun j c -> if x.(j) > 0.5 then value := !value + c) objective;
      match !best with
      | Some b when b <= !value -> ()
      | _ -> best := Some !value
    end
  done;
  !best

let prop_ilp_matches_brute_force =
  QCheck.Test.make ~name:"ILP solver = brute force on random 0/1 programs"
    ~count:60 (QCheck.make random_ilp_gen) (fun (vars, objective, rows) ->
      let brute = brute_force_ilp vars objective rows in
      match
        (Ilp.minimize ~var_count:vars ~objective ~constraints:rows (), brute)
      with
      | Ilp.Optimal { objective = v; _ }, Some b -> v = b
      | Ilp.Infeasible, None -> true
      | Ilp.Budget_exceeded, _ -> QCheck.assume_fail ()
      | Ilp.Optimal _, None | Ilp.Infeasible, Some _ -> false)

let test_ilp_budget () =
  match
    Ilp.minimize ~max_nodes:0 ~var_count:1 ~objective:[| 1 |] ~constraints:[] ()
  with
  | Ilp.Budget_exceeded -> ()
  | _ -> Alcotest.fail "expected budget"

(* ------------------------------------------------------------------ *)
(* Ip_formulation                                                      *)
(* ------------------------------------------------------------------ *)

let test_ip_figure1 () =
  let inst = Figure1.instance () in
  (match Ip_formulation.eocd_at_horizon inst ~horizon:2 with
  | Ip_formulation.Solved { bandwidth; schedule } ->
    Alcotest.(check int) "EOCD@2 = 5" 5 bandwidth;
    Alcotest.(check bool) "schedule valid" true
      (Validate.check_successful inst schedule = Ok ())
  | _ -> Alcotest.fail "horizon 2 should be solvable");
  (match Ip_formulation.eocd_at_horizon inst ~horizon:3 with
  | Ip_formulation.Solved { bandwidth; _ } ->
    Alcotest.(check int) "EOCD@3 = 4" 4 bandwidth
  | _ -> Alcotest.fail "horizon 3 should be solvable");
  match Ip_formulation.eocd_at_horizon inst ~horizon:1 with
  | Ip_formulation.Infeasible_at_horizon -> ()
  | _ -> Alcotest.fail "horizon 1 should be infeasible"

let test_ip_focd_figure1 () =
  match Ip_formulation.focd (Figure1.instance ()) with
  | Some (2, schedule) ->
    Alcotest.(check bool) "witness valid" true
      (Validate.check_successful (Figure1.instance ()) schedule = Ok ())
  | Some (tau, _) -> Alcotest.failf "expected tau 2, got %d" tau
  | None -> Alcotest.fail "expected solution"

let test_ip_variable_count () =
  let inst = Figure1.instance () in
  (* τ=2: 2 steps × (4 real + 4 self) arcs × 3 tokens + 4×3 final = 60 *)
  Alcotest.(check int) "variables" 60
    (Ip_formulation.variable_count inst ~horizon:2)

let prop_ip_matches_search =
  QCheck.Test.make ~name:"IP and combinatorial search agree on EOCD@FOCD"
    ~count:8 (QCheck.make tiny_instance_gen) (fun inst ->
      match Search.focd ~max_states:50_000 inst with
      | Search.Solved { objective = tau; _ } when tau <= 3 -> (
        match
          ( Search.eocd ~max_states:100_000 ~horizon:tau inst,
            Ip_formulation.eocd_at_horizon ~max_nodes:5000 inst ~horizon:tau )
        with
        | Search.Solved s, Ip_formulation.Solved { bandwidth; _ } ->
          s.Search.objective = bandwidth
        | Search.Budget_exceeded, _ | _, Ip_formulation.Budget_exceeded ->
          QCheck.assume_fail ()
        | _ -> false)
      | _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Reduction                                                           *)
(* ------------------------------------------------------------------ *)

let ds_graph_gen =
  QCheck.Gen.(
    let* seed = int_range 0 5000 in
    let rng = Prng.create ~seed in
    let n = 3 + Prng.int rng 3 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Prng.bernoulli rng 0.4 then edges := (u, v, 1) :: !edges
      done
    done;
    (* ensure at least one edge so of_edges builds arcs; isolated
       vertices are fine for domination *)
    return (Digraph.of_edges ~vertex_count:n !edges))

let test_reduction_layout () =
  let g = Digraph.of_edges ~vertex_count:3 [ (0, 1, 1) ] in
  let inst = Reduction.instance g ~k:1 in
  Alcotest.(check int) "2n+2 vertices" 8 (Instance.vertex_count inst);
  Alcotest.(check int) "n-k+1 tokens" 3 inst.Instance.token_count;
  Alcotest.(check (list int)) "s holds all" [ 0; 1; 2 ]
    (Bitset.elements inst.Instance.have.(Reduction.vertex_s));
  Alcotest.(check (list int)) "t wants B tokens" [ 1; 2 ]
    (Bitset.elements inst.Instance.want.(Reduction.vertex_t));
  (* reduction.mli's layout [{s, t} ∪ V ∪ V']: v'_i is vertex 2 + n + i *)
  Alcotest.(check (list int)) "v'_0 wants token 0" [ 0 ]
    (Bitset.elements inst.Instance.want.(2 + 3 + 0))

let test_reduction_star_k1 () =
  (* Star graph has a dominating set of size 1 → 2-step solvable. *)
  let g =
    Digraph.of_edges ~vertex_count:4 [ (0, 1, 1); (0, 2, 1); (0, 3, 1) ]
  in
  Alcotest.(check bool) "k=1 solvable" true (Reduction.two_step_solvable g ~k:1);
  Alcotest.(check bool) "k=0 not" false (Reduction.two_step_solvable g ~k:0)

let test_reduction_constructive_schedule () =
  let g =
    Digraph.of_edges ~vertex_count:4 [ (0, 1, 1); (0, 2, 1); (0, 3, 1) ]
  in
  let inst = Reduction.instance g ~k:1 in
  let sch = Reduction.schedule_of_dominating_set g ~k:1 ~dominating:[ 0 ] in
  Alcotest.(check bool) "2 steps" true (Schedule.length sch = 2);
  Alcotest.(check bool) "valid & successful" true
    (Validate.check_successful inst sch = Ok ())

let test_reduction_rejects_non_dominating () =
  let g = Digraph.of_edges ~vertex_count:4 [ (0, 1, 1); (2, 3, 1) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Reduction.schedule_of_dominating_set g ~k:1 ~dominating:[ 0 ]);
       false
     with Invalid_argument _ -> true)

let prop_reduction_equivalence =
  QCheck.Test.make
    ~name:"DS of size <= k iff reduced FOCD solvable in 2 steps" ~count:40
    (QCheck.make ds_graph_gen) (fun g ->
      let n = Digraph.vertex_count g in
      List.for_all
        (fun k ->
          Ocd_graph.Dominating.exists_of_size g k
          = Reduction.two_step_solvable g ~k)
        (List.init (n + 1) Fun.id))

let prop_reduction_constructive =
  QCheck.Test.make
    ~name:"constructive schedule from a minimum dominating set validates"
    ~count:40 (QCheck.make ds_graph_gen) (fun g ->
      let dom = Ocd_graph.Dominating.minimum g in
      let k = List.length dom in
      let inst = Reduction.instance g ~k in
      let sch = Reduction.schedule_of_dominating_set g ~k ~dominating:dom in
      Schedule.length sch = 2 && Validate.check_successful inst sch = Ok ())

let prop_reduction_matches_generic_search =
  QCheck.Test.make
    ~name:"generic FOCD search agrees with the 2-step decision (n <= 4)"
    ~count:10
    QCheck.(int_range 0 300)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 3 + Prng.int rng 2 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Prng.bernoulli rng 0.5 then edges := (u, v, 1) :: !edges
        done
      done;
      let g = Digraph.of_edges ~vertex_count:n !edges in
      let k = Prng.int rng (n + 1) in
      match Search.focd ~max_states:60_000 (Reduction.instance g ~k) with
      | Search.Solved { objective = tau; _ } ->
        (tau <= 2) = Reduction.two_step_solvable g ~k
      | Search.Unsatisfiable -> not (Reduction.two_step_solvable g ~k)
      | Search.Budget_exceeded -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Adversary                                                           *)
(* ------------------------------------------------------------------ *)

let test_adversary_instance () =
  let inst = Adversary.instance ~distance:4 ~decoys:6 ~wanted:2 in
  Alcotest.(check int) "vertices" 5 (Instance.vertex_count inst);
  Alcotest.(check int) "tokens" 7 inst.Instance.token_count;
  Alcotest.(check bool) "satisfiable" true (Instance.satisfiable inst)

let test_adversary_optimal_schedule () =
  (* The prescient witness of [Adversary.optimal_makespan]: the wanted
     token pipelined straight down the path. *)
  let distance = 4 and wanted = 2 in
  let inst = Adversary.instance ~distance ~decoys:6 ~wanted in
  let sch =
    Schedule.of_steps
      (List.init distance (fun i -> [ { Move.src = i; dst = i + 1; token = wanted } ]))
  in
  Alcotest.(check bool) "valid" true (Validate.check_successful inst sch = Ok ());
  Alcotest.(check int) "makespan = optimal_makespan"
    (Adversary.optimal_makespan ~distance) (Schedule.length sch);
  Alcotest.(check int) "bandwidth = distance" 4 (Schedule.move_count sch)

let test_adversary_optimum_is_exact () =
  let inst = Adversary.instance ~distance:3 ~decoys:2 ~wanted:0 in
  Alcotest.(check int) "FOCD = distance" 3
    (solved (Search.focd inst)).Search.objective

let test_adversary_hurts_blind_heuristics () =
  (* With capacity-1 arcs and many decoys, want-blind flooding must be
     strictly slower than the prescient optimum on some wanted token:
     the adversary picks the worst; we check the max over wanted. *)
  let distance = 4 and decoys = 6 in
  let worst strategy =
    List.fold_left
      (fun acc wanted ->
        let inst = Adversary.instance ~distance ~decoys ~wanted in
        let run = Ocd_engine.Engine.run ~strategy ~seed:5 inst in
        max acc run.Ocd_engine.Engine.metrics.Metrics.makespan)
      0
      (List.init (decoys + 1) Fun.id)
  in
  Alcotest.(check bool) "round-robin suffers" true
    (worst Ocd_heuristics.Round_robin.strategy > distance);
  Alcotest.(check bool) "random suffers" true
    (worst Ocd_heuristics.Random_push.strategy > distance);
  (* The want-aware bandwidth heuristic matches the optimum. *)
  Alcotest.(check int) "bandwidth optimal" distance
    (worst Ocd_heuristics.Bandwidth_saver.strategy)

let () =
  Alcotest.run "ocd_exact"
    [
      ( "search-focd",
        [
          Alcotest.test_case "line" `Quick test_focd_line;
          Alcotest.test_case "trivial" `Quick test_focd_trivial;
          Alcotest.test_case "unsatisfiable" `Quick test_focd_unsatisfiable;
          Alcotest.test_case "capacity bound" `Quick test_focd_capacity_bound;
          Alcotest.test_case "budget" `Quick test_focd_budget;
          Alcotest.test_case "figure1" `Quick test_focd_figure1;
        ] );
      ( "search-eocd",
        [
          Alcotest.test_case "line" `Quick test_eocd_line;
          Alcotest.test_case "figure1 horizon tension" `Quick
            test_eocd_horizon_tension;
          Alcotest.test_case "star deficit" `Quick
            test_eocd_bandwidth_is_deficit_on_direct_graphs;
          qtest prop_focd_eocd_consistent;
          qtest prop_focd_geq_lower_bound;
          qtest prop_eocd_geq_deficit;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic min" `Quick test_simplex_basic_min;
          Alcotest.test_case "bounded box" `Quick test_simplex_bounded_box;
          Alcotest.test_case "equality" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick
            test_simplex_negative_rhs_normalisation;
          Alcotest.test_case "redundant equalities" `Quick
            test_simplex_degenerate_redundant;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "triangle cover" `Quick test_ilp_knapsack_like;
          Alcotest.test_case "forces integrality" `Quick test_ilp_forced_integrality;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "budget" `Quick test_ilp_budget;
          qtest prop_ilp_matches_brute_force;
        ] );
      ( "ip-formulation",
        [
          Alcotest.test_case "figure1 horizons" `Quick test_ip_figure1;
          Alcotest.test_case "figure1 FOCD" `Quick test_ip_focd_figure1;
          Alcotest.test_case "variable count" `Quick test_ip_variable_count;
          qtest prop_ip_matches_search;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "layout" `Quick test_reduction_layout;
          Alcotest.test_case "star k=1" `Quick test_reduction_star_k1;
          Alcotest.test_case "constructive schedule" `Quick
            test_reduction_constructive_schedule;
          Alcotest.test_case "rejects non-dominating" `Quick
            test_reduction_rejects_non_dominating;
          qtest prop_reduction_equivalence;
          qtest prop_reduction_constructive;
          qtest prop_reduction_matches_generic_search;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "instance" `Quick test_adversary_instance;
          Alcotest.test_case "optimal schedule" `Quick test_adversary_optimal_schedule;
          Alcotest.test_case "optimum exact" `Quick test_adversary_optimum_is_exact;
          Alcotest.test_case "blind heuristics suffer" `Quick
            test_adversary_hurts_blind_heuristics;
        ] );
    ]
