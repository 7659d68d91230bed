(* Tests for Ocd_prelude.Pool: the fixed-size domain pool behind the
   parallel benchmark harness.  The contract under test: results come
   back in input order regardless of the jobs setting, exceptions
   propagate deterministically, and nested use degrades to sequential
   execution instead of deadlocking. *)

open Ocd_prelude

let test_default_jobs () =
  Alcotest.(check bool) "at least one worker" true (Pool.default_jobs () >= 1)

let test_jobs_zero_rejected () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Pool.mapi: jobs must be >= 1")
    (fun () -> ignore (Pool.map ~jobs:0 (fun x -> x) [ 1; 2; 3 ]))

let test_empty () =
  Alcotest.(check (list int)) "jobs=1" [] (Pool.map ~jobs:1 (fun x -> x) []);
  Alcotest.(check (list int)) "jobs=4" [] (Pool.map ~jobs:4 (fun x -> x) [])

(* A task whose duration varies with its index, so under jobs=N the
   completion order differs from the submission order. *)
let busy_square i =
  let spin = ref 0 in
  for _ = 1 to (i mod 7) * 10_000 do
    incr spin
  done;
  ignore !spin;
  i * i

let test_order_preserved () =
  let input = List.init 64 (fun i -> i) in
  let expected = List.map busy_square input in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs busy_square input))
    [ 1; 2; 4; 8 ]

let test_jobs_exceed_tasks () =
  Alcotest.(check (list int)) "more workers than tasks" [ 0; 1; 4 ]
    (Pool.map ~jobs:16 busy_square [ 0; 1; 2 ])

let test_mapi_indices () =
  Alcotest.(check (list int)) "index + value" [ 10; 21; 32 ]
    (Pool.mapi ~jobs:3 (fun i x -> x + i) [ 10; 20; 30 ])

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "failure surfaces at jobs=%d" jobs)
        (Failure "task 5") (fun () ->
          ignore
            (Pool.mapi ~jobs
               (fun i x ->
                 if i = 5 then failwith "task 5" else busy_square x)
               (List.init 12 (fun i -> i)))))
    [ 1; 4 ]

let test_lowest_failure_wins () =
  (* Several tasks fail; the re-raised exception must be the one with
     the lowest index no matter which worker finished first. *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "lowest index wins at jobs=%d" jobs)
        (Failure "task 3") (fun () ->
          ignore
            (Pool.mapi ~jobs
               (fun i _ ->
                 if i >= 3 && i mod 3 = 0 then
                   failwith (Printf.sprintf "task %d" i)
                 else i)
               (List.init 20 (fun i -> i)))))
    [ 1; 2; 8 ]

let test_survivors_complete_despite_failure () =
  (* Every task still runs when an early one raises: a later call
     observing shared state sees every successful task's effect. *)
  let n = 16 in
  let done_flags = Array.make n (Atomic.make false) in
  Array.iteri (fun i _ -> done_flags.(i) <- Atomic.make false) done_flags;
  (try
     ignore
       (Pool.mapi ~jobs:4
          (fun i _ ->
            if i = 0 then failwith "first task fails";
            Atomic.set done_flags.(i) true)
          (List.init n (fun i -> i)))
   with Failure _ -> ());
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d still ran" i)
        true
        (Atomic.get done_flags.(i)))
    (List.init (n - 1) (fun i -> i + 1))

let test_nested_use () =
  (* A pool map inside a pool worker must neither deadlock nor scramble
     order: the inner map runs inline. *)
  let expected =
    List.init 6 (fun i -> List.init 5 (fun j -> busy_square ((10 * i) + j)))
  in
  let inner i = Pool.map ~jobs:4 busy_square (List.init 5 (fun j -> (10 * i) + j)) in
  Alcotest.(check (list (list int)))
    "nested pool" expected
    (Pool.map ~jobs:3 inner (List.init 6 (fun i -> i)));
  (* and an exception thrown inside a nested map still propagates *)
  Alcotest.check_raises "nested failure" (Failure "inner") (fun () ->
      ignore
        (Pool.map ~jobs:2
           (fun i ->
             Pool.map ~jobs:2
               (fun j -> if i = 1 && j = 1 then failwith "inner" else j)
               [ 0; 1 ])
           [ 0; 1; 2 ]))

let test_reusable_after_failure () =
  (* A failed map leaves no broken global state behind. *)
  (try ignore (Pool.map ~jobs:4 (fun _ -> failwith "boom") [ 1; 2; 3 ])
   with Failure _ -> ());
  Alcotest.(check (list int)) "pool still works" [ 1; 4; 9 ]
    (Pool.map ~jobs:4 (fun x -> x * x) [ 1; 2; 3 ])

let test_deterministic_rng_tasks () =
  (* The bench harness's actual pattern: every task derives its own
     PRNG from an explicit seed, so outputs must be byte-identical
     across jobs settings. *)
  let task seed =
    let rng = Prng.create ~seed in
    List.init 8 (fun _ -> Prng.int rng 1000)
  in
  let seeds = List.init 24 (fun i -> 7 * i) in
  let sequential = List.map task seeds in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "jobs=%d" jobs)
        sequential
        (Pool.map ~jobs task seeds))
    [ 2; 4 ]

let test_map_scoped () =
  (* Each task bumps a counter and emits a span in its own scope; the
     merged capture must not depend on [jobs], and every task's events
     and keys must sit in the lane it was given. *)
  let inputs = List.init 12 (fun i -> i) in
  let lane i x = (100 + i, Printf.sprintf "task-%d/" x) in
  let capture jobs =
    let obs = Ocd_obs.create ~sink:(Ocd_obs.Sink.memory ()) () in
    let results =
      Pool.map_scoped ~obs ~jobs ~lane
        (fun scope x ->
          Ocd_obs.Metrics.add scope.Ocd_obs.metrics "hits" (x + 1);
          Ocd_obs.Span.instant scope.Ocd_obs.sink ~pid:0 ~tid:x ~name:"task"
            ~ts:(busy_square x) ();
          2 * x)
        inputs
    in
    ( results,
      Ocd_obs.Metrics.render obs.Ocd_obs.metrics,
      Ocd_obs.Metrics.snapshot obs.Ocd_obs.metrics,
      Ocd_obs.Sink.events obs.Ocd_obs.sink )
  in
  let results, render, snapshot, events = capture 1 in
  Alcotest.(check (list int)) "results" (List.map (fun x -> 2 * x) inputs)
    results;
  List.iter
    (fun jobs ->
      let r, m, _, e = capture jobs in
      let name = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check (list int)) (name ^ " results") results r;
      Alcotest.(check string) (name ^ " metrics") render m;
      Alcotest.(check (list string))
        (name ^ " events")
        (List.map Ocd_obs.Sink.event_to_json events)
        (List.map Ocd_obs.Sink.event_to_json e))
    [ 2; 4 ];
  Alcotest.(check int) "one event per task" (List.length inputs)
    (List.length events);
  List.iteri
    (fun i (x, (e : Ocd_obs.Sink.event)) ->
      Alcotest.(check int) "event of task i" x e.Ocd_obs.Sink.tid;
      Alcotest.(check int) "lane pid" (fst (lane i x)) e.Ocd_obs.Sink.pid)
    (List.combine inputs events);
  Alcotest.(check (list string)) "lane prefixes"
    (List.sort compare (List.mapi (fun i x -> snd (lane i x) ^ "hits") inputs))
    (List.map fst snapshot);
  List.iteri
    (fun i x ->
      match List.assoc_opt (snd (lane i x) ^ "hits") snapshot with
      | Some (Ocd_obs.Metrics.Counter c) ->
        Alcotest.(check int) "task counter" (x + 1) c
      | _ -> Alcotest.fail "missing task counter")
    inputs

let () =
  Alcotest.run "ocd_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "default_jobs" `Quick test_default_jobs;
          Alcotest.test_case "jobs=0 rejected" `Quick test_jobs_zero_rejected;
          Alcotest.test_case "empty input" `Quick test_empty;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
          Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "lowest failure wins" `Quick
            test_lowest_failure_wins;
          Alcotest.test_case "queue drained on failure" `Quick
            test_survivors_complete_despite_failure;
          Alcotest.test_case "nested use" `Quick test_nested_use;
          Alcotest.test_case "reusable after failure" `Quick
            test_reusable_after_failure;
          Alcotest.test_case "deterministic rng tasks" `Quick
            test_deterministic_rng_tasks;
          Alcotest.test_case "map_scoped lanes" `Quick test_map_scoped;
        ] );
    ]
