module Runtime = Ocd_async.Runtime
module Monitor = Ocd_async.Monitor
module Faults = Ocd_dynamics.Faults

type case = Chaos.case = {
  protocol : string;
  instance_seed : int;
  n : int;
  tokens : int;
  loss : float;
  flaps : bool;
  churn : bool;
  cell_seed : int;
  run_seed : int;
  round_limit : int;
  durability : Faults.durability;
  groups : int;
  downtime : (int * int * int) list;
  windows : (int * int) list;
}

let faults_of c =
  Faults.compose
    (Faults.of_downtime ~durability:c.durability c.downtime)
    (Faults.of_windows ~seed:(c.cell_seed + Chaos.part_off) ~groups:c.groups
       c.windows)

let run_case c =
  let inst = Chaos.instance_of ~seed:c.instance_seed ~n:c.n ~tokens:c.tokens in
  let cell =
    {
      Chaos.label = "";
      loss = c.loss;
      flaps = c.flaps;
      churn = c.churn;
      crash_prob = 0.0;
      partition = None;
    }
  in
  let profile, condition, _ =
    Chaos.environment cell ~cell_seed:c.cell_seed
      ~sources:(Chaos.sources_of inst)
  in
  let monitor = Monitor.create () in
  let r =
    Runtime.run ~profile ~condition ~faults:(faults_of c) ~monitor
      ~round_limit:c.round_limit
      ~protocol:(Ocd_dht.Registry.find_exn c.protocol)
      ~seed:c.run_seed inst
  in
  Chaos.classify inst r monitor

(* ----------------------------- shrinking ----------------------------- *)

(* The shrinkable unit: one explicit fault event.  Crash spans and
   partition windows are bisected together in a single list — removing
   a window can be what keeps a crash span interesting, so they must
   shrink against each other, not in separate passes. *)
type event = Down of int * int * int | Win of int * int

let events_of c =
  List.map (fun (v, a, b) -> Down (v, a, b)) c.downtime
  @ List.map (fun (a, b) -> Win (a, b)) c.windows

let with_events c events =
  {
    c with
    downtime =
      List.filter_map (function Down (v, a, b) -> Some (v, a, b) | _ -> None)
        events;
    windows =
      List.filter_map (function Win (a, b) -> Some (a, b) | _ -> None) events;
  }

let max_tests = 256

type shrunk = { minimal : case; tag : string; tests : int }

(* Zeller–Hildebrandt ddmin over the event list: try each chunk alone,
   then each chunk's complement, refine granularity, stop at 1-minimal
   (every remaining event is load-bearing) or at the test budget.  The
   failure *tag* must be preserved, not mere failure: a schedule that
   stalls for a different reason after reduction is a different bug. *)
let shrink c =
  match run_case c with
  | None -> Error "Shrink.shrink: the case does not fail"
  | Some tag ->
      let tests = ref 1 in
      let fails events =
        !tests < max_tests
        && begin
             incr tests;
             run_case (with_events c events) = Some tag
           end
      in
      let chunk size l =
        let rec go acc cur k = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | x :: rest ->
              if k = size then go (List.rev cur :: acc) [ x ] 1 rest
              else go acc (x :: cur) (k + 1) rest
        in
        go [] [] 0 l
      in
      let rec ddmin events n =
        let len = List.length events in
        if len <= 1 then events
        else begin
          let chunks = chunk ((len + n - 1) / n) events in
          let rec subsets = function
            | [] -> None
            | ch :: rest ->
                if List.length ch < len && fails ch then Some ch
                else subsets rest
          in
          let complements () =
            let rec go i =
              if i >= List.length chunks then None
              else
                let comp =
                  List.concat
                    (List.filteri (fun j _ -> j <> i) chunks)
                in
                if List.length comp < len && fails comp then Some comp
                else go (i + 1)
            in
            go 0
          in
          match subsets chunks with
          | Some reduced -> ddmin reduced 2
          | None -> (
              match complements () with
              | Some reduced -> ddmin reduced (max (n - 1) 2)
              | None ->
                  if n < len then ddmin events (min len (2 * n)) else events)
        end
      in
      let minimal_events = ddmin (events_of c) 2 in
      Ok { minimal = with_events c minimal_events; tag; tests = !tests }

(* --------------------------- artifact format -------------------------- *)

let magic = "ocd-chaos-repro v1"

let durabilities =
  [
    ("durable", Faults.Durable);
    ("lost-unless-source", Faults.Lost_unless_source);
  ]

(* The cell seed prints as the seeds of the processes it drives, as v1
   always has; [of_string] checks that they agree on one cell seed. *)
let to_string c =
  let b = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  line "%s" magic;
  line "protocol=%s" c.protocol;
  line "instance_seed=%d" c.instance_seed;
  line "n=%d" c.n;
  line "tokens=%d" c.tokens;
  line "loss=%.17g" c.loss;
  if c.flaps then line "flap_seed=%d" (c.cell_seed + Chaos.flap_off);
  if c.churn then line "churn_seed=%d" (c.cell_seed + Chaos.churn_off);
  line "run_seed=%d" c.run_seed;
  line "round_limit=%d" c.round_limit;
  line "durability=%s"
    (fst (List.find (fun (_, d) -> d = c.durability) durabilities));
  line "part_seed=%d" (c.cell_seed + Chaos.part_off);
  line "groups=%d" c.groups;
  List.iter (fun (v, a, u) -> line "down %d %d %d" v a u) c.downtime;
  List.iter (fun (a, u) -> line "win %d %d" a u) c.windows;
  Buffer.contents b

let keys =
  [
    "protocol"; "instance_seed"; "n"; "tokens"; "loss"; "flap_seed";
    "churn_seed"; "run_seed"; "round_limit"; "durability"; "part_seed";
    "groups";
  ]

(* Every case [of_string] accepts replays through [run_case] under its
   own tag: each check below rejects an input that would otherwise
   raise there or replay as a different failure. *)
let of_string s =
  let ( let* ) = Result.bind in
  let lines =
    List.filter (fun l -> l <> "")
      (List.map String.trim (String.split_on_char '\n' s))
  in
  let* rest =
    match lines with
    | first :: rest when first = magic -> Ok rest
    | _ -> Error (Printf.sprintf "expected leading %S line" magic)
  in
  let line (fields, events) l =
    let ints = List.map int_of_string_opt in
    match (String.index_opt l '=', String.split_on_char ' ' l) with
    | Some i, _ when List.mem (String.sub l 0 i) keys ->
        let k = String.sub l 0 i in
        if List.mem_assoc k fields then Error ("duplicate key: " ^ k)
        else
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          Ok ((k, v) :: fields, events)
    | None, "down" :: vs -> (
        match ints vs with
        | [ Some v; Some a; Some u ] -> Ok (fields, Down (v, a, u) :: events)
        | _ -> Error ("bad line: " ^ l))
    | None, "win" :: vs -> (
        match ints vs with
        | [ Some a; Some u ] -> Ok (fields, Win (a, u) :: events)
        | _ -> Error ("bad line: " ^ l))
    | _ -> Error ("bad line: " ^ l)
  in
  let* fields, events =
    List.fold_left (fun acc l -> Result.bind acc (fun acc -> line acc l))
      (Ok ([], [])) rest
  in
  let parse k of_string ok =
    let* v =
      Option.to_result ~none:("missing " ^ k) (List.assoc_opt k fields)
    in
    match of_string v with
    | Some x when ok x -> Ok x
    | _ -> Error (Printf.sprintf "bad %s=%s" k v)
  in
  let int k ok = parse k int_of_string_opt ok in
  let any _ = true in
  let* protocol =
    parse "protocol" Option.some (fun p -> Ocd_dht.Registry.find p <> None)
  in
  let* instance_seed = int "instance_seed" any in
  let* n = int "n" (fun n -> n > 0) in
  let* tokens = int "tokens" (fun t -> t > 0) in
  let* loss =
    parse "loss" float_of_string_opt (fun p -> p >= 0.0 && p <= 1.0)
  in
  let* run_seed = int "run_seed" any in
  let* round_limit = int "round_limit" (fun r -> r > 0) in
  let* durability =
    parse "durability" (Fun.flip List.assoc_opt durabilities) any
  in
  let* part_seed = int "part_seed" any in
  let* groups = int "groups" (fun g -> g >= 2) in
  let cell_seed = part_seed - Chaos.part_off in
  (* a flap or churn seed must belong to the partition seed's cell *)
  let process k off =
    if List.mem_assoc k fields then
      Result.map (fun _ -> true) (int k (( = ) (cell_seed + off)))
    else Ok false
  in
  let* flaps = process "flap_seed" Chaos.flap_off in
  let* churn = process "churn_seed" Chaos.churn_off in
  let c =
    with_events
      {
        protocol;
        instance_seed;
        n;
        tokens;
        loss;
        flaps;
        churn;
        cell_seed;
        run_seed;
        round_limit;
        durability;
        groups;
        downtime = [];
        windows = [];
      }
      (List.rev events)
  in
  if List.exists (fun (v, _, _) -> v < 0 || v >= n) c.downtime then
    Error "down: node out of range"
  else
    match faults_of c with
    | _ -> Ok c
    | exception Invalid_argument e -> Error e
