(* Tests for ocd_core: Instance, Schedule, Validate, Metrics, Prune,
   Bounds, Scenario, Figure1. *)

open Ocd_prelude
open Ocd_core
open Ocd_graph

let qtest = QCheck_alcotest.to_alcotest

let mv src dst token = { Move.src; dst; token }

(* Fixed line instance: 0 -> 1 -> 2 (caps 2), tokens {0,1}, source 0,
   sink 2 wants both. *)
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

let good_line_schedule () =
  Schedule.of_steps [ [ mv 0 1 0; mv 0 1 1 ]; [ mv 1 2 0; mv 1 2 1 ] ]

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let test_instance_accessors () =
  let inst = line () in
  Alcotest.(check int) "vertices" 3 (Instance.vertex_count inst);
  Alcotest.(check (list int)) "holders" [ 0 ] (Instance.holders inst 0);
  Alcotest.(check (list int)) "wanters" [ 2 ] (Instance.wanters inst 1);
  Alcotest.(check int) "deficit 2" 2 (Bitset.cardinal (Instance.deficit inst 2));
  Alcotest.(check int) "deficit 0" 0 (Bitset.cardinal (Instance.deficit inst 0));
  Alcotest.(check int) "total deficit" 2 (Instance.total_deficit inst);
  Alcotest.(check bool) "not trivial" false (Instance.trivially_satisfied inst);
  Alcotest.(check bool) "satisfiable" true (Instance.satisfiable inst)

let test_instance_wanter_already_has () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check bool) "trivially satisfied" true
    (Instance.trivially_satisfied inst)

let test_instance_rejects_orphan_token () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  Alcotest.check_raises "orphan token"
    (Invalid_argument "Instance: some token has no initial holder") (fun () ->
      ignore
        (Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0 ]) ]
           ~want:[ (1, [ 1 ]) ]))

let test_instance_rejects_bad_vertex () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Instance.make: vertex out of range") (fun () ->
      ignore
        (Instance.make ~graph ~token_count:1 ~have:[ (5, [ 0 ]) ] ~want:[]))

let test_instance_unsatisfiable_direction () =
  (* Token sits downstream of its wanter on a one-way arc. *)
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (1, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check bool) "unsatisfiable" false (Instance.satisfiable inst)

let test_instance_with_graph_shares () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (1, [ 0 ]) ]
  in
  let wider = Digraph.of_edges ~vertex_count:2 [ (0, 1, 5) ] in
  let view = Instance.with_graph inst wider in
  Alcotest.(check bool) "graph replaced" true (view.Instance.graph == wider);
  Alcotest.(check bool) "have shared" true (view.Instance.have == inst.have);
  Alcotest.(check bool) "want shared" true (view.Instance.want == inst.want);
  Alcotest.check_raises "vertex count mismatch"
    (Invalid_argument "Instance.with_graph: vertex count mismatch") (fun () ->
      ignore
        (Instance.with_graph inst
           (Digraph.of_edges ~vertex_count:3 [ (0, 1, 1) ])))

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let test_schedule_basics () =
  let s = good_line_schedule () in
  Alcotest.(check int) "length" 2 (Schedule.length s);
  Alcotest.(check int) "moves" 4 (Schedule.move_count s);
  Alcotest.(check int) "step 0" 2 (List.length (Schedule.step s 0))

let test_schedule_empty () =
  Alcotest.(check int) "empty length" 0 (Schedule.length Schedule.empty);
  Alcotest.(check int) "empty moves" 0 (Schedule.move_count Schedule.empty);
  Alcotest.(check bool) "out of range step" true
    (Schedule.step Schedule.empty 3 = [])

let test_schedule_append_and_trailing () =
  let s = Schedule.of_steps [ [ mv 0 1 0 ]; []; [] ] in
  Alcotest.(check int) "with trailing" 3 (Schedule.length s);
  Alcotest.(check int) "stripped" 1
    (Schedule.length (Schedule.drop_trailing_empty s))

let test_schedule_drop_keeps_interior_empty () =
  let s = Schedule.of_steps [ [ mv 0 1 0 ]; []; [ mv 1 2 0 ]; [] ] in
  Alcotest.(check int) "interior kept" 3
    (Schedule.length (Schedule.drop_trailing_empty s))

let test_schedule_iter_order () =
  let s = good_line_schedule () in
  let seen = ref [] in
  Schedule.iter_moves s (fun ~step m -> seen := (step, m.Move.token) :: !seen);
  Alcotest.(check (list (pair int int))) "order"
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    (List.rev !seen)

let test_schedule_append_scales () =
  (* Regression: appending a step through the builder must stay
     amortized O(1).  10^5 sequential appends are instant under the
     packed representation and prohibitive under anything quadratic. *)
  let steps = 100_000 in
  let b = Schedule.Builder.create () in
  for i = 0 to steps - 1 do
    Schedule.Builder.push_move b ~src:(i mod 7) ~dst:((i + 1) mod 7)
      ~token:(i mod 3);
    Schedule.Builder.end_step b
  done;
  let s = Schedule.Builder.to_schedule b in
  Alcotest.(check int) "length" steps (Schedule.length s);
  Alcotest.(check int) "moves" steps (Schedule.move_count s);
  Alcotest.(check int) "step count O(1) metadata" 1
    (Schedule.step_move_count s (steps - 1));
  (match Schedule.step s 54_321 with
  | [ m ] ->
    Alcotest.(check int) "src" (54_321 mod 7) m.Move.src;
    Alcotest.(check int) "token" (54_321 mod 3) m.Move.token
  | l -> Alcotest.failf "step 54321 has %d moves" (List.length l))

let test_schedule_append_persistent () =
  (* Pushes after [to_schedule], with or without regrowing the
     builder's arrays, must not show through the value taken. *)
  let b = Schedule.Builder.create ~steps_hint:1 ~moves_hint:1 () in
  Schedule.Builder.push_move b ~src:0 ~dst:1 ~token:0;
  Schedule.Builder.end_step b;
  let base = Schedule.Builder.to_schedule b in
  Schedule.Builder.push_move b ~src:1 ~dst:2 ~token:1;
  Schedule.Builder.end_step b;
  let longer = Schedule.Builder.to_schedule b in
  for i = 0 to 99 do
    Schedule.Builder.push_move b ~src:2 ~dst:3 ~token:i
  done;
  Schedule.Builder.end_step b;
  Alcotest.(check int) "base untouched" 1 (Schedule.length base);
  Alcotest.(check int) "base moves" 1 (Schedule.move_count base);
  Alcotest.(check int) "longer untouched" 2 (Schedule.length longer);
  Alcotest.(check bool) "longer steps" true
    (Schedule.steps longer = [ [ mv 0 1 0 ]; [ mv 1 2 1 ] ])

let test_schedule_builder () =
  let b = Schedule.Builder.create () in
  Schedule.Builder.push_move b ~src:0 ~dst:1 ~token:0;
  Schedule.Builder.push_move b ~src:0 ~dst:2 ~token:1;
  Schedule.Builder.end_step b;
  Schedule.Builder.end_step b;
  Schedule.Builder.push_move b ~src:1 ~dst:2 ~token:0;
  Schedule.Builder.end_step b;
  let s = Schedule.Builder.to_schedule b in
  Alcotest.(check int) "length" 3 (Schedule.length s);
  Alcotest.(check int) "empty middle step" 0 (Schedule.step_move_count s 1);
  let seen = ref [] in
  Schedule.iter_step s 0 (fun ~src ~dst ~token ->
      seen := (src, dst, token) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "iter_step emission order"
    [ (0, 1, 0); (0, 2, 1) ]
    (List.rev !seen);
  Alcotest.(check bool) "steps round-trips" true
    (Schedule.steps s = [ [ mv 0 1 0; mv 0 2 1 ]; []; [ mv 1 2 0 ] ])

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let check_ok = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Validate.pp_error e

let test_validate_good_schedule () =
  check_ok (Validate.check_successful (line ()) (good_line_schedule ()))

let test_validate_missing_arc () =
  let s = Schedule.of_steps [ [ mv 0 2 0 ] ] in
  match Validate.check (line ()) s with
  | Error (Validate.No_such_arc _) -> ()
  | _ -> Alcotest.fail "expected No_such_arc"

let test_validate_capacity () =
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (1, [ 0; 1 ]) ]
  in
  let s = Schedule.of_steps [ [ mv 0 1 0; mv 0 1 1 ] ] in
  match Validate.check inst s with
  | Error (Validate.Capacity_exceeded { sent = 2; capacity = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Capacity_exceeded"

let test_validate_possession () =
  (* Vertex 1 sends a token it has not yet received. *)
  let s = Schedule.of_steps [ [ mv 1 2 0 ] ] in
  match Validate.check (line ()) s with
  | Error (Validate.Not_possessed _) -> ()
  | _ -> Alcotest.fail "expected Not_possessed"

let test_validate_same_step_relay_forbidden () =
  (* A token may not be forwarded in the same step it arrives. *)
  let s = Schedule.of_steps [ [ mv 0 1 0; mv 1 2 0 ] ] in
  match Validate.check (line ()) s with
  | Error (Validate.Not_possessed _) -> ()
  | _ -> Alcotest.fail "expected Not_possessed for same-step relay"

let test_validate_duplicate_assignment () =
  let s = Schedule.of_steps [ [ mv 0 1 0; mv 0 1 0 ] ] in
  match Validate.check (line ()) s with
  | Error (Validate.Duplicate_assignment _) -> ()
  | _ -> Alcotest.fail "expected Duplicate_assignment"

let test_validate_unsatisfied () =
  let s = Schedule.of_steps [ [ mv 0 1 0 ] ] in
  match Validate.check_successful (line ()) s with
  | Error (Validate.Unsatisfied { vertex = 2; missing = [ 0; 1 ] }) -> ()
  | _ -> Alcotest.fail "expected Unsatisfied vertex 2"

let test_validate_resend_to_holder_is_legal () =
  (* Wasteful but valid: sending a token the receiver already has. *)
  let inst = line () in
  let s =
    Schedule.of_steps
      [ [ mv 0 1 0; mv 0 1 1 ]; [ mv 0 1 0; mv 1 2 0; mv 1 2 1 ] ]
  in
  check_ok (Validate.check_successful inst s)

(* Regression for the per-step reset of the validator's tables: each
   step starts from empty dedup and arc-load counts. *)
let test_validate_repeat_move_across_steps () =
  let s = Schedule.of_steps [ [ mv 0 1 0 ]; [ mv 0 1 0 ] ] in
  check_ok (Validate.check (line ()) s)

let test_validate_capacity_resets_per_step () =
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (1, [ 0; 1 ]) ]
  in
  check_ok
    (Validate.check_successful inst
       (Schedule.of_steps [ [ mv 0 1 0 ]; [ mv 0 1 1 ] ]));
  match
    Validate.check inst (Schedule.of_steps [ [ mv 0 1 0 ]; [ mv 0 1 0; mv 0 1 1 ] ])
  with
  | Error (Validate.Capacity_exceeded { step = 1; sent = 2; capacity = 1; _ }) ->
    ()
  | _ -> Alcotest.fail "expected Capacity_exceeded at step 1"

let test_validate_error_reports_step () =
  let s = Schedule.of_steps [ [ mv 0 1 0 ]; [ mv 0 1 1; mv 0 1 1 ] ] in
  match Validate.check (line ()) s with
  | Error (Validate.Duplicate_assignment { step = 1; move }) ->
    Alcotest.(check bool) "the repeated move" true (move = mv 0 1 1)
  | _ -> Alcotest.fail "expected Duplicate_assignment at step 1"

let test_possessions_evolution () =
  let inst = line () in
  let p =
    Timeline.fold inst (good_line_schedule ()) ~init:[] ~f:(fun acc v ->
        Array.map Bitset.copy v.Timeline.have :: acc)
    |> List.rev |> Array.of_list
  in
  Alcotest.(check int) "three snapshots" 3 (Array.length p);
  Alcotest.(check (list int)) "p0 at 1" [] (Bitset.elements p.(0).(1));
  Alcotest.(check (list int)) "p1 at 1" [ 0; 1 ] (Bitset.elements p.(1).(1));
  Alcotest.(check (list int)) "p2 at 2" [ 0; 1 ] (Bitset.elements p.(2).(2));
  (* sources never lose tokens *)
  Alcotest.(check (list int)) "p2 at 0" [ 0; 1 ] (Bitset.elements p.(2).(0))

let test_final_possessions () =
  let final = Validate.final_possessions (line ()) (good_line_schedule ()) in
  Alcotest.(check (list int)) "sink" [ 0; 1 ] (Bitset.elements final.(2))

(* Mutation testing: corrupt a valid successful schedule in a
   categorised way and check the validator flags exactly that kind of
   violation.  This is what makes the independent checker trustworthy:
   if a strategy or engine bug produced any of these corruptions, the
   reported metrics would be rejected. *)
let prop_validator_catches_mutations =
  let mutation_gen =
    QCheck.Gen.(
      let* seed = int_range 0 3_000 in
      let* kind = int_range 0 3 in
      return (seed, kind))
  in
  QCheck.Test.make ~name:"validator catches every mutation category" ~count:60
    (QCheck.make mutation_gen) (fun (seed, kind) ->
      let rng = Prng.create ~seed in
      let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:12 ~p:0.4 () in
      let inst = (Scenario.single_file rng ~graph:g ~tokens:4 ()).Scenario.instance in
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Local_rarest.strategy
             ~seed:(seed + 1) inst)
      in
      let steps = Schedule.steps run.Ocd_engine.Engine.schedule in
      match (steps, kind) with
      | [], _ -> QCheck.assume_fail ()
      | first :: rest, 0 -> (
        (* inject a move whose source cannot possess the token yet:
           relay a token from a non-holder at step 0 *)
        let non_holder =
          List.find_opt
            (fun v -> Bitset.is_empty inst.Instance.have.(v))
            (Ocd_graph.Digraph.vertices g)
        in
        match non_holder with
        | None -> QCheck.assume_fail ()
        | Some v -> (
          match Ocd_graph.Digraph.(View.to_array (succ g v)) with
          | [||] -> QCheck.assume_fail ()
          | row ->
            let dst, _ = row.(0) in
            let bad = Schedule.of_steps ((mv v dst 0 :: first) :: rest) in
            (match Validate.check inst bad with
            | Error (Validate.Not_possessed _) -> true
            | _ -> false)))
      | first :: rest, 1 -> (
        (* duplicate an existing move within its step *)
        match first with
        | [] -> QCheck.assume_fail ()
        | m :: _ -> (
          let bad = Schedule.of_steps ((m :: first) :: rest) in
          match Validate.check inst bad with
          | Error (Validate.Duplicate_assignment _) -> true
          | _ -> false))
      | first :: rest, 2 -> (
        (* route a move over a non-existent arc *)
        let missing =
          List.find_opt
            (fun (u, v) ->
              u <> v && not (Ocd_graph.Digraph.mem_arc g u v))
            (List.concat_map
               (fun u -> List.map (fun v -> (u, v)) (Ocd_graph.Digraph.vertices g))
               (Ocd_graph.Digraph.vertices g))
        in
        match missing with
        | None -> QCheck.assume_fail ()
        | Some (u, v) -> (
          let holder = List.hd (Instance.holders inst 0) in
          ignore holder;
          let bad = Schedule.of_steps ((mv u v 0 :: first) :: rest) in
          match Validate.check inst bad with
          | Error (Validate.No_such_arc _) -> true
          | _ -> false))
      | first :: rest, _ -> (
        (* drop every delivery of one token to one vertex: success must
           fail with Unsatisfied *)
        match first with
        | [] -> QCheck.assume_fail ()
        | m :: _ ->
          let target = (m.Move.dst, m.Move.token) in
          let strip moves =
            List.filter
              (fun (x : Move.t) -> (x.Move.dst, x.Move.token) <> target)
              moves
          in
          let bad = Schedule.of_steps (List.map strip (first :: rest)) in
          (match Validate.check_successful inst bad with
          | Error (Validate.Unsatisfied _) -> true
          | Error (Validate.Not_possessed _) ->
            (* stripping can also orphan a later forward, which is a
               legitimate catch too *)
            true
          | _ -> false))
      )

(* The Int_tab checker that [Validate] ran before it indexed arcs by
   CSR slot, kept verbatim as the oracle of the differential property
   below: hashed (arc, token) and arc keys, cleared per step. *)
let oracle_check_validity (inst : Instance.t) schedule =
  let open Validate in
  let g = inst.graph in
  let n = Instance.vertex_count inst in
  let token_count = inst.token_count in
  let before = Array.map Bitset.copy inst.have in
  let error = ref None in
  let fail e = if !error = None then error := Some e in
  (* Int-packed keys — [(src·n + dst)·m + token] and [src·n + dst] —
     in stamped tables hoisted out of the step loop: clearing is O(1)
     per step and a probe allocates nothing. *)
  let seen = Int_tab.create () in
  let arc_load = Int_tab.create () in
  let run_step step =
    Int_tab.clear seen;
    Int_tab.clear arc_load;
    let check_move ~src ~dst ~token =
      let cap = Digraph.capacity g src dst in
      let in_range = token >= 0 && token < token_count in
      if cap = 0 then fail (No_such_arc { step; move = { Move.src; dst; token } })
      else begin
        (* Out-of-range tokens skip the dedup table (the packed key
           cannot represent them); they fail [Not_possessed] below, so
           any later duplicate is shadowed by that earlier error either
           way. *)
        if in_range then begin
          let key = ((src * n) + dst) * token_count + token in
          if Int_tab.incr seen key > 1 then
            fail (Duplicate_assignment { step; move = { Move.src; dst; token } })
        end;
        let load = Int_tab.incr arc_load ((src * n) + dst) in
        if load > cap then
          fail (Capacity_exceeded { step; src; dst; sent = load; capacity = cap });
        if not (in_range && Bitset.mem before.(src) token) then
          fail (Not_possessed { step; move = { Move.src; dst; token } })
      end
    in
    Schedule.iter_step schedule step check_move;
    (* Deliveries become visible only at the next step. *)
    Schedule.iter_step schedule step (fun ~src:_ ~dst ~token ->
        if token >= 0 && token < token_count then Bitset.add before.(dst) token)
  in
  for step = 0 to Schedule.length schedule - 1 do
    run_step step
  done;
  match !error with Some e -> Error e | None -> Ok before

let oracle_check inst schedule =
  match oracle_check_validity inst schedule with
  | Ok _ -> Ok ()
  | Error e -> Error e

let oracle_check_successful (inst : Instance.t) schedule =
  match oracle_check_validity inst schedule with
  | Error e -> Error e
  | Ok final ->
    let rec scan v =
      if v >= Instance.vertex_count inst then Ok ()
      else if Bitset.subset inst.want.(v) final.(v) then scan (v + 1)
      else
        Error
          (Validate.Unsatisfied
             {
               vertex = v;
               missing = Bitset.elements (Bitset.diff inst.want.(v) final.(v));
             })
    in
    scan 0

(* [x] inserted into [l] at position [at] (clamped to the end). *)
let insert_at at x l =
  let rec go i = function
    | rest when i = at -> x :: rest
    | [] -> [ x ]
    | y :: rest -> y :: go (i + 1) rest
  in
  go 0 l

(* One categorised corruption of [steps] (a non-empty array):
   0 a move from a random vertex on a random out-arc, token in range
     (possessed or not); 1 a copy of an existing move in its own step;
   2 a move over a missing arc (self-loops included); 3 every delivery
   of one (dst, token) removed; 4 an out-of-range token on an arc;
   5 one more distinct token than an arc's capacity in one step;
   6 a move repeated in the next step (the arc's slot reused in
   consecutive steps), sometimes with another token; 7 one step's
   moves shuffled, which reorders the first error. *)
let mutate rng (inst : Instance.t) steps kind =
  let g = inst.graph in
  let n = Instance.vertex_count inst and m = inst.token_count in
  let len = Array.length steps in
  let i = Prng.int rng len in
  let put step x =
    steps.(step) <-
      insert_at (Prng.int rng (List.length steps.(step) + 1)) x steps.(step)
  in
  let random_arc () =
    let rec pick tries =
      let u = Prng.int rng n in
      let row = Digraph.View.to_array (Digraph.succ g u) in
      if Array.length row > 0 then
        let v, c = Prng.pick rng row in
        Some (u, v, c)
      else if tries > 0 then pick (tries - 1)
      else None
    in
    pick 20
  in
  let existing () =
    match List.concat (Array.to_list steps) with
    | [] -> None
    | all -> Some (Prng.pick_list rng all)
  in
  match kind with
  | 0 ->
    Option.iter
      (fun (u, v, _) -> put i (mv u v (Prng.int rng m)))
      (random_arc ())
  | 1 -> (
    match steps.(i) with
    | [] -> ()
    | moves -> put i (Prng.pick_list rng moves))
  | 2 ->
    let u = Prng.int rng n and v = Prng.int rng n in
    if not (Digraph.mem_arc g u v) then put i (mv u v (Prng.int rng m))
  | 3 ->
    Option.iter
      (fun (x : Move.t) ->
        Array.iteri
          (fun s moves ->
            steps.(s) <-
              List.filter
                (fun (y : Move.t) -> (y.dst, y.token) <> (x.dst, x.token))
                moves)
          steps)
      (existing ())
  | 4 ->
    Option.iter
      (fun (u, v, _) -> put i (mv u v (Prng.pick rng [| -1; -64; m; m + 63 |])))
      (random_arc ())
  | 5 ->
    Option.iter
      (fun (u, v, c) ->
        List.iter
          (fun t -> put i (mv u v t))
          (Prng.sample_without_replacement rng (min m (c + 1)) m))
      (random_arc ())
  | 6 ->
    Option.iter
      (fun (x : Move.t) ->
        let next = min (len - 1) (i + 1) in
        let token = if Prng.bool rng then x.token else Prng.int rng m in
        put next { x with token })
      (match steps.(i) with [] -> None | moves -> Some (Prng.pick_list rng moves))
  | _ ->
    let a = Array.of_list steps.(i) in
    Prng.shuffle rng a;
    steps.(i) <- Array.to_list a

(* The slot-indexed [Validate] and the Int_tab oracle agree — same
   result, same first error (variant, step, move, [sent]) — on
   heuristic schedules with one to four corruptions, on capacities 1-3
   (so duplicates land on arcs of capacity >= 2 as well as 1) and token
   counts around the 63-token word boundary. *)
let prop_validate_matches_oracle =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 100_000 in
      let* n = int_range 3 12 in
      let* tokens = oneofl [ 1; 2; 5; 62; 63; 64; 65; 127 ] in
      let* strategy = int_range 0 4 in
      let* kinds = list_size (int_range 1 4) (int_range 0 7) in
      return (seed, n, tokens, strategy, kinds))
  in
  QCheck.Test.make ~name:"validate = Int_tab oracle on mutated schedules"
    ~count:300 (QCheck.make gen) (fun (seed, n, tokens, strategy, kinds) ->
      let rng = Prng.create ~seed in
      let g =
        Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.5
          ~weights:(Ocd_topology.Weights.Uniform (1, 3)) ()
      in
      let inst = (Scenario.single_file rng ~graph:g ~tokens ()).Scenario.instance in
      let run =
        Ocd_engine.Engine.run ~step_limit:40
          ~strategy:(List.nth Ocd_heuristics.Registry.all strategy)
          ~seed:(seed + 1) inst
      in
      let steps =
        match Schedule.steps run.Ocd_engine.Engine.schedule with
        | [] -> [| []; [] |]
        | steps -> Array.of_list (steps @ [ [] ])
      in
      List.iter (mutate rng inst steps) kinds;
      let s = Schedule.of_steps (Array.to_list steps) in
      Validate.check inst s = oracle_check inst s
      && Validate.check_successful inst s = oracle_check_successful inst s)

(* Metrics counts the moves §5.1 pruning keeps without building the
   pruned schedule; the count must be that schedule's move count, on
   every kind of schedule the tree produces: the five heuristics, the
   four baselines, and the async protocols' delivery logs. *)
let prop_metrics_pruned_bandwidth =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 100_000 in
      let* n = int_range 4 16 in
      let* tokens = int_range 1 10 in
      let* source = int_range 0 12 in
      return (seed, n, tokens, source))
  in
  QCheck.Test.make ~name:"metrics pruned bandwidth = pruned move count"
    ~count:60 (QCheck.make gen) (fun (seed, n, tokens, source) ->
      let rng = Prng.create ~seed in
      let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.4 () in
      let inst =
        (Scenario.receiver_density rng ~graph:g ~tokens ~threshold:0.5 ())
          .Scenario.instance
      in
      let engine strategy =
        (Ocd_engine.Engine.run ~strategy ~seed:(seed + 1) inst)
          .Ocd_engine.Engine.schedule
      in
      let schedule =
        match source with
        | k when k < 5 -> engine (List.nth Ocd_heuristics.Registry.all k)
        | 5 -> Ocd_baselines.Serial_steiner.plan inst
        | 6 -> engine (Ocd_baselines.Fast_replica.strategy ())
        | 7 -> engine (Ocd_baselines.Tree_push.strategy ())
        | 8 -> engine (Ocd_baselines.Split_forest.strategy ~k:2 ())
        | k ->
          let protocols =
            List.map Ocd_async.Registry.find_exn Ocd_async.Registry.names
          in
          let protocol = List.nth protocols ((k - 9) mod List.length protocols) in
          (Ocd_async.Runtime.run ~protocol ~seed:(seed + 1) inst)
            .Ocd_async.Runtime.schedule
      in
      (Metrics.of_schedule inst schedule).Metrics.pruned_bandwidth
      = Schedule.move_count (Prune.prune inst schedule))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_line () =
  let m = Metrics.of_schedule (line ()) (good_line_schedule ()) in
  Alcotest.(check int) "makespan" 2 m.Metrics.makespan;
  Alcotest.(check int) "bandwidth" 4 m.Metrics.bandwidth;
  Alcotest.(check int) "pruned" 4 m.Metrics.pruned_bandwidth;
  Alcotest.(check (array int)) "completion" [| 0; 0; 2 |]
    m.Metrics.completion_times

let test_metrics_completion_times_partial () =
  (* Vertex 1 wants token 0 only; completes at step 1. *)
  let graph =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 2 };
        { Digraph.src = 1; dst = 2; capacity = 2 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (1, [ 0 ]); (2, [ 0; 1 ]) ]
  in
  let m = Metrics.of_schedule inst (good_line_schedule ()) in
  Alcotest.(check (array int)) "completion" [| 0; 1; 2 |]
    m.Metrics.completion_times;
  Alcotest.(check (float 1e-9)) "mean" 1.0 (Metrics.mean_completion m)

let test_metrics_incomplete_schedule () =
  let m = Metrics.of_schedule (line ()) Schedule.empty in
  Alcotest.(check (array int)) "never completes" [| 0; 0; -1 |]
    m.Metrics.completion_times

(* ------------------------------------------------------------------ *)
(* Prune                                                               *)
(* ------------------------------------------------------------------ *)

let test_prune_removes_redelivery () =
  let inst = line () in
  let wasteful =
    Schedule.of_steps
      [ [ mv 0 1 0; mv 0 1 1 ]; [ mv 0 1 0; mv 1 2 0; mv 1 2 1 ] ]
  in
  let pruned = Prune.prune inst wasteful in
  Alcotest.(check int) "redelivery dropped" 4 (Schedule.move_count pruned);
  check_ok (Validate.check_successful inst pruned)

let test_prune_removes_unused_delivery () =
  (* Token 1 delivered to vertex 1 which neither wants nor forwards it. *)
  let graph =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 2 };
        { Digraph.src = 0; dst = 2; capacity = 2 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (2, [ 0; 1 ]) ]
  in
  let wasteful =
    Schedule.of_steps [ [ mv 0 1 0; mv 0 1 1; mv 0 2 0; mv 0 2 1 ] ]
  in
  let pruned = Prune.prune inst wasteful in
  Alcotest.(check int) "vertex-1 deliveries dropped" 2
    (Schedule.move_count pruned);
  check_ok (Validate.check_successful inst pruned)

let test_prune_keeps_relay_chain () =
  let inst = line () in
  let s = good_line_schedule () in
  Alcotest.(check int) "relay kept" 4 (Schedule.move_count (Prune.prune inst s))

let test_prune_drops_trailing_steps () =
  let inst = line () in
  let s =
    Schedule.of_steps
      [ [ mv 0 1 0; mv 0 1 1 ]; [ mv 1 2 0; mv 1 2 1 ]; [ mv 0 1 0 ] ]
  in
  let pruned = Prune.prune inst s in
  Alcotest.(check int) "length shrinks" 2 (Schedule.length pruned)

let test_prune_multi_delivery_same_step () =
  (* Two arcs deliver the same token to the same vertex in one step;
     pass 1 must keep exactly one. *)
  let graph =
    Digraph.of_arcs ~vertex_count:4
      [
        { Digraph.src = 0; dst = 3; capacity = 1 };
        { Digraph.src = 1; dst = 3; capacity = 1 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]); (1, [ 0 ]) ]
      ~want:[ (3, [ 0 ]) ]
  in
  let s = Schedule.of_steps [ [ mv 0 3 0; mv 1 3 0 ] ] in
  let pruned = Prune.prune inst s in
  Alcotest.(check int) "one survives" 1 (Schedule.move_count pruned);
  check_ok (Validate.check_successful inst pruned)

(* Property: pruning any valid successful heuristic schedule preserves
   success and never increases cost. *)
let scenario_gen =
  QCheck.Gen.(
    let* seed = int_range 0 5_000 in
    let* n = int_range 5 25 in
    let* tokens = int_range 1 12 in
    return (seed, n, tokens))

let run_random_heuristic (seed, n, tokens) =
  let rng = Prng.create ~seed in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
  let sc = Scenario.single_file rng ~graph:g ~tokens () in
  let run =
    Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Random_push.strategy
      ~seed:(seed + 1) sc.Scenario.instance
  in
  (sc.Scenario.instance, run)

let prop_prune_sound =
  QCheck.Test.make ~name:"prune preserves success, never increases cost"
    ~count:40 (QCheck.make scenario_gen) (fun params ->
      let inst, run = run_random_heuristic params in
      match run.Ocd_engine.Engine.outcome with
      | Ocd_engine.Engine.Completed ->
        let s = run.Ocd_engine.Engine.schedule in
        let pruned = Prune.prune inst s in
        Validate.check_successful inst pruned = Ok ()
        && Schedule.move_count pruned <= Schedule.move_count s
        && Schedule.length pruned <= Schedule.length s
      | _ -> false)

let prop_prune_reaches_deficit_when_all_want_all =
  QCheck.Test.make
    ~name:"single-file pruning reaches the deficit lower bound" ~count:25
    (QCheck.make scenario_gen) (fun params ->
      let inst, run = run_random_heuristic params in
      match run.Ocd_engine.Engine.outcome with
      | Ocd_engine.Engine.Completed ->
        (* all-want-all: every delivery is useful, so pruning hits the
           §5.1 bandwidth lower bound exactly *)
        Schedule.move_count (Prune.prune inst run.Ocd_engine.Engine.schedule)
        = Instance.total_deficit inst
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_bounds_line () =
  let inst = line () in
  Alcotest.(check int) "bandwidth lb" 2 (Bounds.bandwidth_lower_bound inst);
  (* sink is 2 hops from the only holder *)
  Alcotest.(check int) "makespan lb" 2 (Bounds.makespan_lower_bound inst)

let test_bounds_capacity_term () =
  (* 5 tokens through an in-capacity of 2: at least ceil(5/2) = 3. *)
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 2 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:5
      ~have:[ (0, [ 0; 1; 2; 3; 4 ]) ]
      ~want:[ (1, [ 0; 1; 2; 3; 4 ]) ]
  in
  Alcotest.(check int) "ceil(5/2)" 3 (Bounds.makespan_lower_bound inst)

let test_bounds_distance_plus_capacity () =
  (* Chain 0 -(cap 1)-> 1 -(cap 1)-> 2; 3 tokens to vertex 2:
     M_1(2) = 1 + ceil(3/1)?? tokens are 2 hops away: M_i for i=1:
     all 3 outside radius 1 → 1 + 3 = 4. *)
  let graph =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 1 };
        { Digraph.src = 1; dst = 2; capacity = 1 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:3 ~have:[ (0, [ 0; 1; 2 ]) ]
      ~want:[ (2, [ 0; 1; 2 ]) ]
  in
  Alcotest.(check int) "1 + 3" 4 (Bounds.makespan_lower_bound inst)

let test_bounds_zero_when_satisfied () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check int) "bw" 0 (Bounds.bandwidth_lower_bound inst);
  Alcotest.(check int) "mk" 0 (Bounds.makespan_lower_bound inst)

let test_bounds_unreachable_raises () =
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (1, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.check_raises "unreachable"
    (Invalid_argument "Bounds.remaining_makespan: unreachable token") (fun () ->
      ignore (Bounds.makespan_lower_bound inst))

let test_bounds_one_step_feasible () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 2) ] in
  let ok =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (1, [ 0; 1 ]) ]
  in
  Alcotest.(check bool) "2 tokens cap 2" true
    (Bounds.one_step_feasible ok ~have:ok.Instance.have);
  let too_many =
    Instance.make ~graph:(Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ])
      ~token_count:2 ~have:[ (0, [ 0; 1 ]) ] ~want:[ (1, [ 0; 1 ]) ]
  in
  Alcotest.(check bool) "2 tokens cap 1" false
    (Bounds.one_step_feasible too_many ~have:too_many.Instance.have)

let prop_bounds_below_heuristic =
  QCheck.Test.make ~name:"lower bounds never exceed an actual schedule"
    ~count:40 (QCheck.make scenario_gen) (fun params ->
      let inst, run = run_random_heuristic params in
      match run.Ocd_engine.Engine.outcome with
      | Ocd_engine.Engine.Completed ->
        let m = run.Ocd_engine.Engine.metrics in
        Bounds.bandwidth_lower_bound inst <= m.Metrics.bandwidth
        && Bounds.makespan_lower_bound inst <= m.Metrics.makespan
      | _ -> false)

(* The reverse-BFS [remaining_makespan] that per-token forward BFS
   replaced, kept (with the private helpers it used, and the reversed
   graph rebuilt from flipped arcs) as the differential oracle: one reverse BFS per deficit vertex, then an
   O(n) holder scan per deficit token. *)
module Reverse_bfs_oracle = struct
  let deficit_at (inst : Instance.t) have v =
    Bitset.diff inst.want.(v) have.(v)

  let ceil_div a b = (a + b - 1) / b

  let vertex_bound distances in_capacity =
    match distances with
    | [] -> 0
    | distances ->
      let sorted = List.sort Int.compare distances in
      let total = List.length sorted in
      let max_d = List.fold_left max 0 sorted in
      let intake = max 1 in_capacity in
      let rec outside i rest count =
        match rest with
        | d :: tl when d <= i -> outside i tl (count - 1)
        | _ -> (count, rest)
      in
      let best = ref 0 in
      let rest = ref sorted and count = ref total in
      for i = 0 to max_d do
        let c, r = outside i !rest !count in
        rest := r;
        count := c;
        best := max !best (i + ceil_div c intake)
      done;
      !best

  let remaining_makespan (inst : Instance.t) ~have =
    let g = inst.graph in
    let n = Instance.vertex_count inst in
    let reversed =
      Digraph.of_arcs ~vertex_count:n
        (List.map
           (fun (a : Digraph.arc) -> { a with src = a.dst; dst = a.src })
           (Digraph.arcs g))
    in
    let best = ref 0 in
    for v = 0 to n - 1 do
      let deficit = deficit_at inst have v in
      if not (Bitset.is_empty deficit) then begin
        (* dist_to_v.(u) = hop distance u -> v in the original graph. *)
        let dist_to_v = Ocd_graph.Traversal.bfs_levels reversed v in
        let nearest_holder token =
          let best = ref max_int in
          for u = 0 to n - 1 do
            if Bitset.mem have.(u) token && dist_to_v.(u) >= 0 then
              best := min !best dist_to_v.(u)
          done;
          !best
        in
        let distances =
          Bitset.fold
            (fun token acc ->
              let d = nearest_holder token in
              if d = max_int then
                invalid_arg "Bounds.remaining_makespan: unreachable token"
              else d :: acc)
            deficit []
        in
        best := max !best (vertex_bound distances (Digraph.in_capacity g v))
      end
    done;
    !best
end

let bound_outcome f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let same_bound inst ~have =
  bound_outcome (fun () -> Bounds.remaining_makespan inst ~have)
  = bound_outcome (fun () -> Reverse_bfs_oracle.remaining_makespan inst ~have)

(* The tokens' distinct holder sets, each as its ascending vertex list. *)
let holder_sets (inst : Instance.t) =
  let n = Instance.vertex_count inst in
  List.sort_uniq compare
    (List.init inst.token_count (fun t ->
         List.filter (fun v -> Bitset.mem inst.have.(v) t) (List.init n Fun.id)))

(* Random, transit-stub and Waxman graphs under the three §5.2–5.3
   workload shapes, run through one of the five heuristics: the bound
   must agree with the oracle at every step boundary of the schedule.
   The bound runs one BFS per distinct holder set, the oracle one
   search per deficit vertex, so two shapes stress the grouping:
   multi-sender files that start in at least two holder sets, and a
   single file of 64 to 130 tokens, whose holder sets span two or three
   words and split apart as the run spreads them. *)
let prop_bound_matches_oracle_on_timelines =
  QCheck.Test.make
    ~name:"engine schedules: bound = reverse-BFS oracle"
    ~count:50
    QCheck.(pair (int_range 0 5_000) (int_range 10 40))
    (fun (seed, n) ->
      let rng = Prng.create ~seed in
      let kinds = Ocd_topology.Topology.all_kinds in
      let kind = List.nth kinds (seed mod List.length kinds) in
      let graph = Ocd_topology.Topology.generate rng kind ~n in
      let shape = seed / 3 mod 5 in
      let sc =
        match shape with
        | 0 -> Scenario.single_file rng ~graph ~tokens:(1 + (seed mod 9)) ()
        | 1 -> Scenario.receiver_density rng ~graph ~tokens:6 ~threshold:0.4 ()
        | 2 ->
          Scenario.subdivide_files rng ~graph ~total_tokens:8 ~files:4
            ~multi_sender:true ()
        | 3 ->
          Scenario.subdivide_files rng ~graph ~total_tokens:12
            ~files:(2 + (seed mod 2)) ~multi_sender:true ()
        | _ -> Scenario.single_file rng ~graph ~tokens:(64 + (seed mod 67)) ()
      in
      let inst = sc.Scenario.instance in
      QCheck.assume (shape <> 3 || List.length (holder_sets inst) >= 2);
      let heuristics = Ocd_heuristics.Registry.all in
      let strategy = List.nth heuristics (seed mod List.length heuristics) in
      let run = Ocd_engine.Engine.run ~strategy ~seed inst in
      Timeline.fold inst run.Ocd_engine.Engine.schedule ~init:true
        ~f:(fun ok v -> ok && same_bound inst ~have:v.Timeline.have))

(* Sparse one-way arcs make the reverse and forward searches differ in
   direction and leave some wants unreachable; random extra holdings
   stand in for intermediate states.  Value or exception must match. *)
let prop_bound_matches_oracle_directed =
  QCheck.Test.make
    ~name:"directed graphs: bound = reverse-BFS oracle"
    ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 2 14))
    (fun (seed, n) ->
      let rng = Prng.create ~seed in
      let arcs =
        List.concat_map
          (fun src ->
            List.filter_map
              (fun dst ->
                if src <> dst && Prng.float rng 1.0 < 0.2 then
                  Some { Digraph.src; dst; capacity = 1 + Prng.int rng 3 }
                else None)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let graph = Digraph.of_arcs ~vertex_count:n arcs in
      let token_count = 1 + Prng.int rng 5 in
      let tokens = List.init token_count Fun.id in
      let pick p = List.filter (fun _ -> Prng.float rng 1.0 < p) tokens in
      let have =
        (Prng.int rng n, tokens)
        :: List.init n (fun v -> (v, pick 0.15))
      in
      let want = List.init n (fun v -> (v, pick 0.5)) in
      let inst = Instance.make ~graph ~token_count ~have ~want in
      let grown = Array.map Bitset.copy inst.Instance.have in
      Array.iter (fun b -> List.iter (Bitset.add b) (pick 0.2)) grown;
      same_bound inst ~have:inst.Instance.have && same_bound inst ~have:grown)

let test_bound_unreachable_matches_oracle () =
  (* Token 0 lives only at 2, which has no out-arcs; 0 wants it. *)
  let graph =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 1 };
        { Digraph.src = 1; dst = 0; capacity = 1 };
        { Digraph.src = 0; dst = 2; capacity = 1 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (2, [ 0 ]) ]
      ~want:[ (0, [ 0 ]); (1, [ 0 ]) ]
  in
  let expected = Error "Bounds.remaining_makespan: unreachable token" in
  Alcotest.(check (result int string)) "oracle raises" expected
    (bound_outcome (fun () ->
         Reverse_bfs_oracle.remaining_makespan inst ~have:inst.Instance.have));
  Alcotest.(check (result int string)) "bound raises the same" expected
    (bound_outcome (fun () -> Bounds.makespan_lower_bound inst))

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)
(* ------------------------------------------------------------------ *)

let small_graph seed =
  Ocd_topology.Random_graph.erdos_renyi (Prng.create ~seed) ~n:20 ~p:0.4 ()

let test_scenario_single_file () =
  let rng = Prng.create ~seed:1 in
  let sc = Scenario.single_file rng ~graph:(small_graph 1) ~tokens:6 ~source:3 () in
  Alcotest.(check (list int)) "sources" [ 3 ] sc.Scenario.sources;
  Alcotest.(check int) "deficit" (19 * 6)
    (Instance.total_deficit sc.Scenario.instance);
  Alcotest.(check int) "one file" 1 (List.length sc.Scenario.files);
  Alcotest.(check bool) "satisfiable" true
    (Instance.satisfiable sc.Scenario.instance)

let test_scenario_receiver_density_extremes () =
  let rng = Prng.create ~seed:2 in
  let all = Scenario.receiver_density rng ~graph:(small_graph 2) ~tokens:4
      ~threshold:1.0 ~source:0 () in
  Alcotest.(check int) "threshold 1 = everyone" (19 * 4)
    (Instance.total_deficit all.Scenario.instance);
  let none = Scenario.receiver_density rng ~graph:(small_graph 2) ~tokens:4
      ~threshold:0.0 ~source:0 () in
  Alcotest.(check int) "threshold 0 = nobody" 0
    (Instance.total_deficit none.Scenario.instance)

let test_scenario_receiver_density_monotone_in_expectation () =
  let graph = small_graph 3 in
  let deficit threshold =
    let rng = Prng.create ~seed:7 in
    Instance.total_deficit
      (Scenario.receiver_density rng ~graph ~tokens:4 ~threshold ~source:0 ())
        .Scenario.instance
  in
  Alcotest.(check bool) "0.2 <= 0.9" true (deficit 0.2 <= deficit 0.9)

let test_scenario_subdivide_files () =
  let rng = Prng.create ~seed:4 in
  let sc =
    Scenario.subdivide_files rng ~graph:(small_graph 4) ~total_tokens:16
      ~files:4 ~source:0 ()
  in
  Alcotest.(check int) "4 files" 4 (List.length sc.Scenario.files);
  List.iter
    (fun f ->
      Alcotest.(check int) "4 tokens each" 4 (List.length f.Scenario.tokens))
    sc.Scenario.files;
  (* receivers partition the 19 non-source vertices *)
  let receivers = List.concat_map (fun f -> f.Scenario.receivers) sc.Scenario.files in
  Alcotest.(check int) "all receivers" 19 (List.length receivers);
  Alcotest.(check int) "no duplicates" 19
    (List.length (List.sort_uniq compare receivers));
  (* tokens partition [0,16) *)
  let tokens = List.concat_map (fun f -> f.Scenario.tokens) sc.Scenario.files in
  Alcotest.(check (list int)) "token partition" (Order.range 16)
    (List.sort compare tokens)

let test_scenario_subdivide_single_file_equiv () =
  let rng = Prng.create ~seed:5 in
  let sc =
    Scenario.subdivide_files rng ~graph:(small_graph 5) ~total_tokens:8 ~files:1
      ~source:2 ()
  in
  Alcotest.(check int) "everyone wants everything" (19 * 8)
    (Instance.total_deficit sc.Scenario.instance)

let test_scenario_multi_sender () =
  let rng = Prng.create ~seed:6 in
  let sc =
    Scenario.subdivide_files rng ~graph:(small_graph 6) ~total_tokens:8 ~files:4
      ~multi_sender:true ()
  in
  Alcotest.(check bool) "satisfiable" true
    (Instance.satisfiable sc.Scenario.instance);
  (* no sender wants its own file *)
  List.iter
    (fun f ->
      let holders = Instance.holders sc.Scenario.instance (List.hd f.Scenario.tokens) in
      List.iter
        (fun h ->
          Alcotest.(check bool) "sender not receiver" false
            (List.mem h f.Scenario.receivers))
        holders)
    sc.Scenario.files

let test_scenario_subdivide_invalid () =
  let rng = Prng.create ~seed:7 in
  Alcotest.check_raises "files must divide"
    (Invalid_argument "Scenario.subdivide_files: files must divide total_tokens")
    (fun () ->
      ignore
        (Scenario.subdivide_files rng ~graph:(small_graph 7) ~total_tokens:10
           ~files:3 ()))

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let test_figure1_witnesses () =
  let inst = Figure1.instance () in
  check_ok (Validate.check_successful inst (Figure1.min_time_schedule ()));
  check_ok (Validate.check_successful inst (Figure1.min_bandwidth_schedule ()));
  let fast = Metrics.of_schedule inst (Figure1.min_time_schedule ()) in
  let cheap = Metrics.of_schedule inst (Figure1.min_bandwidth_schedule ()) in
  Alcotest.(check int) "fast makespan" 2 fast.Metrics.makespan;
  Alcotest.(check int) "fast bandwidth" 6 fast.Metrics.bandwidth;
  Alcotest.(check int) "cheap makespan" 3 cheap.Metrics.makespan;
  Alcotest.(check int) "cheap bandwidth" 4 cheap.Metrics.bandwidth

let () =
  Alcotest.run "ocd_core"
    [
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "wanter already has" `Quick
            test_instance_wanter_already_has;
          Alcotest.test_case "rejects orphan token" `Quick
            test_instance_rejects_orphan_token;
          Alcotest.test_case "rejects bad vertex" `Quick
            test_instance_rejects_bad_vertex;
          Alcotest.test_case "unsatisfiable direction" `Quick
            test_instance_unsatisfiable_direction;
          Alcotest.test_case "with_graph shares" `Quick test_instance_with_graph_shares;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "basics" `Quick test_schedule_basics;
          Alcotest.test_case "empty" `Quick test_schedule_empty;
          Alcotest.test_case "append/trailing" `Quick test_schedule_append_and_trailing;
          Alcotest.test_case "interior empty kept" `Quick
            test_schedule_drop_keeps_interior_empty;
          Alcotest.test_case "iteration order" `Quick test_schedule_iter_order;
          Alcotest.test_case "append scales" `Quick test_schedule_append_scales;
          Alcotest.test_case "append persistent" `Quick
            test_schedule_append_persistent;
          Alcotest.test_case "builder" `Quick test_schedule_builder;
        ] );
      ( "validate",
        [
          Alcotest.test_case "good schedule" `Quick test_validate_good_schedule;
          Alcotest.test_case "missing arc" `Quick test_validate_missing_arc;
          Alcotest.test_case "capacity" `Quick test_validate_capacity;
          Alcotest.test_case "possession" `Quick test_validate_possession;
          Alcotest.test_case "same-step relay" `Quick
            test_validate_same_step_relay_forbidden;
          Alcotest.test_case "duplicate assignment" `Quick
            test_validate_duplicate_assignment;
          Alcotest.test_case "unsatisfied" `Quick test_validate_unsatisfied;
          Alcotest.test_case "resend legal" `Quick
            test_validate_resend_to_holder_is_legal;
          Alcotest.test_case "repeat move across steps" `Quick
            test_validate_repeat_move_across_steps;
          Alcotest.test_case "capacity resets per step" `Quick
            test_validate_capacity_resets_per_step;
          Alcotest.test_case "error reports its step" `Quick
            test_validate_error_reports_step;
          Alcotest.test_case "possessions evolution" `Quick test_possessions_evolution;
          Alcotest.test_case "final possessions" `Quick test_final_possessions;
          qtest prop_validator_catches_mutations;
          qtest prop_validate_matches_oracle;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "line" `Quick test_metrics_line;
          Alcotest.test_case "partial completion" `Quick
            test_metrics_completion_times_partial;
          Alcotest.test_case "incomplete schedule" `Quick
            test_metrics_incomplete_schedule;
          qtest prop_metrics_pruned_bandwidth;
        ] );
      ( "prune",
        [
          Alcotest.test_case "removes redelivery" `Quick test_prune_removes_redelivery;
          Alcotest.test_case "removes unused" `Quick test_prune_removes_unused_delivery;
          Alcotest.test_case "keeps relay chain" `Quick test_prune_keeps_relay_chain;
          Alcotest.test_case "drops trailing steps" `Quick
            test_prune_drops_trailing_steps;
          Alcotest.test_case "same-step double delivery" `Quick
            test_prune_multi_delivery_same_step;
          qtest prop_prune_sound;
          qtest prop_prune_reaches_deficit_when_all_want_all;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "line" `Quick test_bounds_line;
          Alcotest.test_case "capacity term" `Quick test_bounds_capacity_term;
          Alcotest.test_case "distance + capacity" `Quick
            test_bounds_distance_plus_capacity;
          Alcotest.test_case "zero when satisfied" `Quick test_bounds_zero_when_satisfied;
          Alcotest.test_case "unreachable raises" `Quick test_bounds_unreachable_raises;
          Alcotest.test_case "one-step feasible" `Quick test_bounds_one_step_feasible;
          qtest prop_bounds_below_heuristic;
          (* Differential checks against the reverse-BFS oracle.  They sit
             in this suite because alcotest sizes its name column by the
             longest suite name, and a longer one truncates every case
             name earlier. *)
          qtest prop_bound_matches_oracle_on_timelines;
          qtest prop_bound_matches_oracle_directed;
          Alcotest.test_case "unreachable raises as the oracle" `Quick
            test_bound_unreachable_matches_oracle;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "single file" `Quick test_scenario_single_file;
          Alcotest.test_case "density extremes" `Quick
            test_scenario_receiver_density_extremes;
          Alcotest.test_case "density monotone" `Quick
            test_scenario_receiver_density_monotone_in_expectation;
          Alcotest.test_case "subdivide files" `Quick test_scenario_subdivide_files;
          Alcotest.test_case "subdivide = single when 1" `Quick
            test_scenario_subdivide_single_file_equiv;
          Alcotest.test_case "multi sender" `Quick test_scenario_multi_sender;
          Alcotest.test_case "subdivide invalid" `Quick test_scenario_subdivide_invalid;
        ] );
      ( "figure1",
        [ Alcotest.test_case "witness schedules" `Quick test_figure1_witnesses ] );
    ]
