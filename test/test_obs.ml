(* Tests for the observability layer (Ocd_obs): sink/trace format,
   metrics registry determinism, percentile boundaries,
   zero-perturbation differential runs, and jobs-independent
   merged capture. *)

open Ocd_prelude
open Ocd_core
module Obs = Ocd_obs
module Sink = Ocd_obs.Sink
module OMetrics = Ocd_obs.Metrics
module Span = Ocd_obs.Span
module Engine = Ocd_engine.Engine
module Runtime = Ocd_async.Runtime
module Faults = Ocd_dynamics.Faults

let small_instance ?(seed = 11) ?(n = 14) ?(tokens = 5) () =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

(* ------------------- percentile boundary contract ------------------ *)

(* The single-sample off-by-one this guards against: with one sample,
   rank interpolation used to read past the data at p=1.0 and blend
   the sample with itself at interior p via a fractional index — the
   contract is: every percentile of a singleton IS that sample. *)
let test_percentile_single_sample () =
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "singleton at p=%g" p)
        42.5
        (Stats.percentile [ 42.5 ] p))
    [ 0.0; 0.25; 0.5; 0.95; 1.0 ]

let test_percentile_boundaries () =
  let xs = [ 3.0; 1.0; 4.0; 1.5; 9.0; 2.6 ] in
  Alcotest.(check (float 0.0)) "p0 is the minimum" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 9.0 (Stats.percentile xs 1.0);
  Alcotest.check_raises "p>1 rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile xs 1.5));
  Alcotest.check_raises "p<0 rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile xs (-0.5)));
  (* interior values still interpolate: median of 1,1.5,2.6,3,4,9 *)
  Alcotest.(check (float 1e-9)) "median" 2.8 (Stats.percentile xs 0.5)

(* --------------------------- registry ------------------------------ *)

let test_registry_render_deterministic () =
  let fill () =
    let reg = OMetrics.create () in
    OMetrics.add reg "z/counter" 3;
    OMetrics.add reg "a/counter" 1;
    OMetrics.set (OMetrics.gauge reg "m/gauge") 2.5;
    let h = OMetrics.histogram reg "h/hist" ~buckets:[| 1.; 10. |] in
    List.iter (OMetrics.observe h) [ 0.5; 5.0; 50.0 ];
    reg
  in
  let a = OMetrics.render (fill ()) and b = OMetrics.render (fill ()) in
  Alcotest.(check string) "same fills render identically" a b;
  (* sorted keys: a/ before h/ before m/ before z/ *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' a)
  in
  Alcotest.(check bool)
    "keys sorted" true
    (List.sort compare lines = lines)

let test_registry_merge_prefix () =
  let src = OMetrics.create () in
  OMetrics.add src "c" 2;
  let h = OMetrics.histogram src "h" ~buckets:[| 1. |] in
  OMetrics.observe h 0.5;
  let into = OMetrics.create () in
  OMetrics.add into "p/c" 3;
  OMetrics.merge ~into ~prefix:"p/" src;
  OMetrics.merge ~into ~prefix:"q/" src;
  (match List.assoc "p/c" (OMetrics.snapshot into) with
  | OMetrics.Counter n -> Alcotest.(check int) "counters add" 5 n
  | _ -> Alcotest.fail "p/c is not a counter");
  match List.assoc "q/h" (OMetrics.snapshot into) with
  | OMetrics.Histogram s -> Alcotest.(check int) "histogram copied" 1 s.OMetrics.count
  | _ -> Alcotest.fail "q/h is not a histogram"

let test_disabled_registry_inert () =
  let reg = OMetrics.disabled in
  OMetrics.add reg "x" 5;
  OMetrics.incr (OMetrics.counter reg "x");
  OMetrics.set (OMetrics.gauge reg "g") 1.0;
  OMetrics.observe (OMetrics.histogram reg "h" ~buckets:[| 1. |]) 0.5;
  Alcotest.(check (list reject)) "records nothing"
    []
    (List.map (fun _ -> ()) (OMetrics.snapshot reg))

(* ------------------------ differential runs ------------------------ *)

(* The central contract: instrumentation observes, it never perturbs.
   An instrumented run must be bit-identical in schedule and metrics to
   the bare run. *)
let test_engine_differential () =
  let inst = small_instance () in
  List.iter
    (fun strategy ->
      let bare = Engine.run ~strategy ~seed:7 inst in
      let obs = Obs.create ~sink:(Sink.memory ()) () in
      let seen = Engine.run ~obs ~strategy ~seed:7 inst in
      Alcotest.(check bool)
        ("same schedule: " ^ strategy.Ocd_engine.Strategy.name)
        true
        (Schedule.steps bare.Engine.schedule = Schedule.steps seen.Engine.schedule);
      Alcotest.(check bool)
        ("same metrics: " ^ strategy.Ocd_engine.Strategy.name)
        true
        (bare.Engine.metrics = seen.Engine.metrics))
    Ocd_heuristics.Registry.all

let async_run ?obs ?faults () =
  let inst = small_instance ~seed:5 ~n:12 ~tokens:4 () in
  let protocol = Option.get (Ocd_async.Registry.find "async-local") in
  Runtime.run ?obs ?faults ~round_limit:300 ~protocol ~seed:3 inst

let check_same_async name (a : Runtime.run) (b : Runtime.run) =
  Alcotest.(check bool)
    (name ^ ": same schedule") true
    (Schedule.steps a.Runtime.schedule = Schedule.steps b.Runtime.schedule);
  Alcotest.(check int)
    (name ^ ": same events") a.Runtime.events b.Runtime.events;
  Alcotest.(check int)
    (name ^ ": same fresh") a.Runtime.fresh_deliveries b.Runtime.fresh_deliveries;
  Alcotest.(check int)
    (name ^ ": same retrans") a.Runtime.retransmissions b.Runtime.retransmissions;
  Alcotest.(check int)
    (name ^ ": same crashes") a.Runtime.crashes b.Runtime.crashes;
  Alcotest.(check bool)
    (name ^ ": same completion") true
    (a.Runtime.completion_ticks = b.Runtime.completion_ticks)

let test_async_differential () =
  let bare = async_run () in
  let seen = async_run ~obs:(Obs.create ~sink:(Sink.memory ()) ()) () in
  check_same_async "healthy" bare seen

let test_async_differential_faulted () =
  let faults = Faults.crashes ~seed:9 ~protected:[ 0 ] ~crash_prob:0.08 () in
  let bare = async_run ~faults () in
  let obs = Obs.create ~sink:(Sink.memory ()) () in
  let seen = async_run ~obs ~faults () in
  check_same_async "faulted" bare seen;
  (* and the crash/restart instants really were captured *)
  let instants =
    List.filter (fun e -> e.Sink.name = "crash") (Sink.events obs.Obs.sink)
  in
  Alcotest.(check int)
    "one crash instant per crash" seen.Runtime.crashes (List.length instants)

(* ------------------------- trace format ---------------------------- *)

(* Golden rendering of each phase kind, pinned byte for byte: the
   Chrome trace-event consumers (Perfetto, chrome://tracing) parse
   these exact shapes. *)
let test_event_json_golden () =
  let check msg want e =
    Alcotest.(check string) msg want (Sink.event_to_json e)
  in
  check "complete span"
    {|{"name":"recv","ph":"X","ts":12,"dur":1,"pid":0,"tid":3,"args":{"token":7,"src":1}}|}
    {
      Sink.name = "recv";
      ph = 'X';
      ts = 12;
      dur = 1;
      id = 0;
      pid = 0;
      tid = 3;
      args = [ ("token", Sink.Int 7); ("src", Sink.Int 1) ];
    };
  check "instant (empty args omitted)"
    {|{"name":"crash","ph":"i","ts":640,"s":"t","pid":2,"tid":9}|}
    {
      Sink.name = "crash";
      ph = 'i';
      ts = 640;
      dur = 0;
      id = 0;
      pid = 2;
      tid = 9;
      args = [];
    };
  check "counter with float and escaped string"
    {|{"name":"q \"d\"","ph":"C","ts":5,"pid":0,"tid":0,"args":{"depth":1.5,"k":"a\nb"}}|}
    {
      Sink.name = "q \"d\"";
      ph = 'C';
      ts = 5;
      dur = 0;
      id = 0;
      pid = 0;
      tid = 0;
      args = [ ("depth", Sink.Float 1.5); ("k", Sink.String "a\nb") ];
    };
  check "flow step carries id"
    {|{"name":"critical-path","ph":"t","ts":9,"id":1,"pid":0,"tid":4}|}
    {
      Sink.name = "critical-path";
      ph = 't';
      ts = 9;
      dur = 0;
      id = 1;
      pid = 0;
      tid = 4;
      args = [];
    };
  check "flow end binds to enclosing slice"
    {|{"name":"critical-path","ph":"f","ts":11,"id":1,"bp":"e","pid":0,"tid":5}|}
    {
      Sink.name = "critical-path";
      ph = 'f';
      ts = 11;
      dur = 0;
      id = 1;
      pid = 0;
      tid = 5;
      args = [];
    }

let test_jsonl_golden_file () =
  let path = Filename.temp_file "ocd_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Sink.jsonl oc in
      let phase ph ts =
        Sink.emit sink
          { Sink.name = "phase"; ph; ts; dur = 0; id = 0; pid = 0; tid = 1;
            args = [] }
      in
      phase 'B' 0;
      Span.complete sink ~pid:0 ~tid:1 ~name:"work" ~ts:1 ~dur:2
        ~args:[ ("k", Sink.Int 3) ]
        ();
      phase 'E' 4;
      Sink.close sink;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Alcotest.(check string)
        "whole stream"
        ("[\n"
       ^ {|{"name":"phase","ph":"B","ts":0,"pid":0,"tid":1},|}
       ^ "\n"
       ^ {|{"name":"work","ph":"X","ts":1,"dur":2,"pid":0,"tid":1,"args":{"k":3}},|}
       ^ "\n"
       ^ {|{"name":"phase","ph":"E","ts":4,"pid":0,"tid":1}|}
       ^ "\n]\n")
        s)

(* Structural validation on a real instrumented run: every event
   carries the required trace-event fields, and per tid the sim-time
   timestamps are monotone in emission order. *)
let test_trace_fields_and_monotonicity () =
  let obs = Obs.create ~sink:(Sink.memory ()) () in
  ignore (async_run ~obs ());
  let events = Sink.events obs.Obs.sink in
  Alcotest.(check bool) "events captured" true (List.length events > 0);
  let last_ts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Sink.event) ->
      Alcotest.(check bool) "name nonempty" true (e.Sink.name <> "");
      Alcotest.(check bool)
        "known phase" true
        (List.mem e.Sink.ph [ 'B'; 'E'; 'X'; 'i'; 'C' ]);
      Alcotest.(check bool) "ts nonnegative" true (e.Sink.ts >= 0);
      (* the json form must carry all five required fields *)
      let j = Sink.event_to_json e in
      List.iter
        (fun field ->
          let needle = "\"" ^ field ^ "\"" in
          let found =
            let n = String.length j and m = String.length needle in
            let rec scan i = i + m <= n && (String.sub j i m = needle || scan (i + 1)) in
            scan 0
          in
          Alcotest.(check bool) ("field " ^ field) true found)
        [ "name"; "ph"; "ts"; "pid"; "tid" ];
      let prev =
        Option.value ~default:0 (Hashtbl.find_opt last_ts e.Sink.tid)
      in
      Alcotest.(check bool)
        "per-tid sim-time monotone" true (e.Sink.ts >= prev);
      Hashtbl.replace last_ts e.Sink.tid e.Sink.ts)
    events

(* --------------------- jobs-independent capture -------------------- *)

let test_chaos_capture_jobs_independent () =
  let cell label crash_prob =
    {
      Ocd_bench.Chaos.label;
      loss = 0.0;
      flaps = false;
      churn = false;
      crash_prob;
      partition = None;
    }
  in
  let grid =
    {
      Ocd_bench.Chaos.n = 10;
      tokens = 4;
      trials = 2;
      cells = [ cell "baseline" 0.0; cell "crash" 0.1 ];
    }
  in
  let capture jobs =
    let obs = Obs.create ~sink:(Sink.memory ()) () in
    ignore (Ocd_bench.Chaos.run ~obs ~jobs ~seed:21 grid);
    ( OMetrics.render obs.Obs.metrics,
      String.concat "\n"
        (List.map Sink.event_to_json (Sink.events obs.Obs.sink)) )
  in
  let m1, t1 = capture 1 and m3, t3 = capture 3 in
  Alcotest.(check string) "metrics byte-identical across jobs" m1 m3;
  Alcotest.(check string) "trace byte-identical across jobs" t1 t3;
  Alcotest.(check bool) "metrics nonempty" true (String.length m1 > 0)

(* -------------------------- causal log ----------------------------- *)

module Causal = Ocd_obs.Causal

(* The oracle: every recorded event as a plain record, in id order. *)
type ev = {
  e_kind : Causal.kind;
  e_tick : int;
  e_node : int;
  e_parent : int;
  e_peer : int;
  e_depart : int;  (* Send only: the accessor is unspecified otherwise *)
  e_token : int;
  e_retry : bool;
}

let root_ev =
  {
    e_kind = Causal.Root; e_tick = 0; e_node = -1; e_parent = -1; e_peer = -1;
    e_depart = 0; e_token = -1; e_retry = false;
  }

(* Records random events of every kind across at least three
   1024-record chunks, mirrors each in a list-of-records oracle whose
   parents follow the documented rules, and reads every accessor back.
   Nodes 40 and 41 record once in the first chunk and next after two
   chunks, as a crash and a boot, so both must take their parent from
   an earlier chunk; fresh marks land on the last record of one chunk
   and the first of the next. *)
let prop_causal_matches_oracle =
  QCheck.Test.make ~name:"causal log = list-of-records oracle" ~count:20
    QCheck.(pair small_nat (int_range 3100 5000))
    (fun (seed, target) ->
      let rng = Prng.create ~seed in
      let log = Causal.create () in
      let oracle = ref [ root_ev ] and count = ref 1 and cur = ref 0 in
      let last = Hashtbl.create 64 in
      let last_or_root v = Option.value ~default:0 (Hashtbl.find_opt last v) in
      let tick = ref 0 in
      let add e id =
        Alcotest.(check int) "consecutive ids" !count id;
        oracle := e :: !oracle;
        incr count;
        if e.e_node >= 0 then Hashtbl.replace last e.e_node id
      in
      let record kind ~node =
        tick := !tick + Prng.int rng 3;
        let tick = !tick in
        let e = { root_ev with e_kind = kind; e_tick = tick; e_node = node } in
        match kind with
        | Causal.Boot ->
            let epoch = Prng.int rng 5 in
            add { e with e_parent = last_or_root node }
              (Causal.record_boot log ~tick ~node ~epoch)
        | Causal.Timer ->
            let parent = Prng.int rng !count in
            add { e with e_parent = parent }
              (Causal.record_timer log ~tick ~node ~parent)
        | Causal.Send ->
            let dst = Prng.int rng 40 and depart = tick + Prng.int rng 9 in
            let token = Prng.int rng 12 - 1 and retry = Prng.bool rng in
            add
              { e with e_parent = !cur; e_peer = dst; e_depart = depart;
                       e_token = token; e_retry = retry }
              (Causal.record_send log ~tick ~node ~dst ~depart ~token ~retry)
        | Causal.Deliver ->
            let src = Prng.int rng 40 and send = Prng.int rng !count in
            let token = Prng.int rng 12 - 1 in
            add { e with e_parent = send; e_peer = src; e_token = token }
              (Causal.record_deliver log ~tick ~node ~src ~send ~token)
        | Causal.Crash ->
            add { e with e_parent = last_or_root node }
              (Causal.record_crash log ~tick ~node)
        | Causal.Restart ->
            let epoch = Prng.int rng 5 in
            add { e with e_parent = last_or_root node }
              (Causal.record_restart log ~tick ~node ~epoch)
        | Causal.Complete ->
            add { e with e_node = -1; e_parent = !cur }
              (Causal.record_complete log ~tick)
        | Causal.Suspicion ->
            let id = !count in
            Causal.record_suspicion log ~tick ~node;
            add { e with e_parent = !cur } id
        | Causal.Root -> invalid_arg "only create records the root"
      in
      let kinds =
        Causal.
          [| Boot; Timer; Send; Deliver; Crash; Restart; Complete; Suspicion |]
      in
      let quiet = ref [] in
      let fresh = ref [] in
      let mark id =
        Causal.set_cur log id;
        cur := id;
        Causal.mark_fresh log;
        fresh := id :: !fresh
      in
      record Causal.Timer ~node:40;
      record Causal.Send ~node:41;
      while !count < target do
        if !count = (2 * 1024) + 100 then begin
          quiet := [ !count; !count + 1 ];
          record Causal.Crash ~node:40;
          record Causal.Boot ~node:41
        end
        else record kinds.(Prng.int rng (Array.length kinds)) ~node:(Prng.int rng 40);
        if Prng.int rng 4 = 0 then begin
          cur := Prng.int rng !count;
          Causal.set_cur log !cur
        end;
        if Prng.int rng 32 = 0 then mark (Prng.int rng !count)
      done;
      let boundary = 1024 * (1 + Prng.int rng ((!count / 1024) - 1)) in
      mark (boundary - 1);
      mark boundary;
      let evs = Array.of_list (List.rev !oracle) in
      let fresh_ids = Hashtbl.create 64 in
      List.iter (fun i -> Hashtbl.replace fresh_ids i ()) !fresh;
      Alcotest.(check (list int)) "crash and boot parents in chunk 0" [ 1; 2 ]
        (List.map (Causal.parent log) !quiet);
      Alcotest.check_raises "read past the end"
        (Invalid_argument "index out of bounds") (fun () ->
          ignore (Causal.tick log (Causal.length log)));
      Alcotest.check_raises "read before the start"
        (Invalid_argument "index out of bounds") (fun () ->
          ignore (Causal.kind log (-1)));
      Causal.length log = Array.length evs
      && Causal.cur log = !cur
      && Array.length evs > 3 * 1024
      && Array.for_all Fun.id
           (Array.mapi
              (fun i e ->
                Causal.kind log i = e.e_kind
                && Causal.tick log i = e.e_tick
                && Causal.node log i = e.e_node
                && Causal.parent log i = e.e_parent
                && Causal.peer log i = e.e_peer
                && Causal.token log i = e.e_token
                && Causal.is_retry log i = e.e_retry
                && Causal.is_fresh log i = Hashtbl.mem fresh_ids i
                && (e.e_kind <> Causal.Send || Causal.depart log i = e.e_depart))
              evs))

(* The shared disabled log stays empty through a faulted run that
   records nothing into it, and has no record to read. *)
let test_causal_disabled () =
  let d = Causal.disabled in
  Alcotest.(check bool) "not enabled" false (Causal.enabled d);
  let faults = Faults.crashes ~seed:9 ~protected:[ 0 ] ~crash_prob:0.08 () in
  ignore (async_run ~faults ());
  Causal.mark_fresh d;
  Alcotest.(check int) "never written" 0 (Causal.length d);
  Alcotest.check_raises "no record 0" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Causal.tick d 0))

let () =
  Alcotest.run "ocd_obs"
    [
      ( "percentile",
        [
          Alcotest.test_case "single sample" `Quick test_percentile_single_sample;
          Alcotest.test_case "boundaries" `Quick test_percentile_boundaries;
        ] );
      ( "registry",
        [
          Alcotest.test_case "render deterministic" `Quick
            test_registry_render_deterministic;
          Alcotest.test_case "merge prefix" `Quick test_registry_merge_prefix;
          Alcotest.test_case "disabled inert" `Quick test_disabled_registry_inert;
        ] );
      ( "differential",
        [
          Alcotest.test_case "sync engine" `Quick test_engine_differential;
          Alcotest.test_case "async healthy" `Quick test_async_differential;
          Alcotest.test_case "async faulted" `Quick
            test_async_differential_faulted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "event json golden" `Quick test_event_json_golden;
          Alcotest.test_case "jsonl golden file" `Quick test_jsonl_golden_file;
          Alcotest.test_case "fields and monotonicity" `Quick
            test_trace_fields_and_monotonicity;
        ] );
      ( "capture",
        [
          Alcotest.test_case "chaos jobs independent" `Quick
            test_chaos_capture_jobs_independent;
        ] );
      ( "causal",
        [
          QCheck_alcotest.to_alcotest prop_causal_matches_oracle;
          Alcotest.test_case "disabled never written" `Quick
            test_causal_disabled;
        ] );
    ]
