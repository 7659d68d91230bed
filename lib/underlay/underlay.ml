open Ocd_core
open Ocd_prelude
open Ocd_graph
module Engine = Ocd_engine.Engine

type t = {
  physical : Digraph.t;
  overlay : Digraph.t;
  host_of : int array;
  paths : ((int * int), (int * int) list) Hashtbl.t;
      (** overlay arc -> ordered physical links *)
}

let build ~physical ~host_of ~overlay =
  let n = Digraph.vertex_count overlay in
  if Array.length host_of <> n then
    invalid_arg "Underlay.build: host_of length mismatch";
  Array.iter
    (fun h ->
      if h < 0 || h >= Digraph.vertex_count physical then
        invalid_arg "Underlay.build: host out of range")
    host_of;
  let paths = Hashtbl.create (Digraph.arc_count overlay) in
  (* One BFS per distinct source host covers all overlay arcs out of
     the overlay vertices living there. *)
  let route { Digraph.src; dst; _ } =
    let s = host_of.(src) and d = host_of.(dst) in
    if s = d then Hashtbl.replace paths (src, dst) []
    else
      match Paths.shortest_path physical ~cost:(fun _ _ -> 1) s d with
      | None -> invalid_arg "Underlay.build: overlay arc not physically routable"
      | Some vertices ->
        let rec links = function
          | a :: (b :: _ as rest) -> (a, b) :: links rest
          | [ _ ] | [] -> []
        in
        Hashtbl.replace paths (src, dst) (links vertices)
  in
  List.iter route (Digraph.arcs overlay);
  { physical; overlay; host_of; paths }

let map_onto_transit_stub rng ~overlay () =
  let n = Digraph.vertex_count overlay in
  (* headroom: physical network ~2x the overlay size so routers and
     spare hosts exist *)
  let params = Ocd_topology.Transit_stub.params_for_size (2 * n) in
  let physical = Ocd_topology.Transit_stub.generate rng params in
  let transit =
    params.Ocd_topology.Transit_stub.transit_domains
    * params.Ocd_topology.Transit_stub.transit_nodes
  in
  let stub_hosts = Digraph.vertex_count physical - transit in
  if stub_hosts < n then
    invalid_arg "Underlay.map_onto_transit_stub: not enough stub hosts";
  (* Overlay vertices on distinct random stub hosts; transit vertices
     are pure routers. *)
  let picks = Prng.sample_without_replacement rng n stub_hosts in
  let host_of = Array.of_list (List.map (fun i -> transit + i) picks) in
  build ~physical ~host_of ~overlay

let path t ~src ~dst =
  match Hashtbl.find_opt t.paths (src, dst) with
  | Some links -> links
  | None -> invalid_arg "Underlay.path: unknown overlay arc"

let sharing t =
  let users : ((int * int), (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun arc links ->
      List.iter
        (fun link ->
          let existing = Option.value (Hashtbl.find_opt users link) ~default:[] in
          Hashtbl.replace users link (arc :: existing))
        links)
    t.paths;
  Hashtbl.fold
    (fun link arcs acc ->
      match arcs with
      | _ :: _ :: _ -> (link, List.sort compare arcs) :: acc
      | _ -> acc)
    users []
  |> List.sort compare

let max_link_stress t =
  let load : ((int * int), int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (src, dst) links ->
      let c = Digraph.capacity t.overlay src dst in
      List.iter
        (fun link ->
          let existing = Option.value (Hashtbl.find_opt load link) ~default:0 in
          Hashtbl.replace load link (existing + c))
        links)
    t.paths;
  Hashtbl.fold
    (fun (a, b) demand acc ->
      let cap = Digraph.capacity t.physical a b in
      Float.max acc (float_of_int demand /. float_of_int (max 1 cap)))
    load 0.0

type run = {
  strategy_name : string;
  outcome : Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  dropped_moves : int;
  fresh_deliveries : int;
}

(* Number the physical links the overlay's routes cross and lay each
   overlay arc's route out as an array of link ids, indexed by the
   arc's CSR slot ([Digraph.arcs] lists arcs in slot order), so
   admission never hashes a tuple. *)
let routes t (inst : Instance.t) =
  let ids = Hashtbl.create 64 and link_capacity = Int_vec.create () in
  let id link =
    match Hashtbl.find_opt ids link with
    | Some i -> i
    | None ->
      let i = Int_vec.length link_capacity in
      Hashtbl.replace ids link i;
      Int_vec.push link_capacity
        (Digraph.capacity t.physical (fst link) (snd link));
      i
  in
  (* Equal arc counts and every instance arc routed make the arc sets
     equal. *)
  let not_overlay () =
    invalid_arg "Underlay.run: instance graph is not the mapped overlay"
  in
  if Digraph.arc_count inst.graph <> Digraph.arc_count t.overlay then
    not_overlay ();
  let routes =
    Array.of_list
      (List.map
         (fun { Digraph.src; dst; _ } ->
           match Hashtbl.find_opt t.paths (src, dst) with
           | None -> not_overlay ()
           | Some links -> Array.of_list (List.map id links))
         (Digraph.arcs inst.graph))
  in
  ( (fun ~src ~dst -> routes.(Digraph.slot inst.graph src dst)),
    Int_vec.to_array link_capacity )

let run t ~strategy ~seed (inst : Instance.t) =
  let route, link_capacity = routes t inst in
  let admission =
    Engine.Lossy
      {
        visible = (fun _ -> inst);
        capacity = (fun ~step:_ ~src:_ ~dst:_ ~base -> base);
        route;
        link_capacity;
      }
  in
  let r =
    Engine.rounds ~admission ~completion:Engine.Wants ~strategy ~seed inst
  in
  {
    strategy_name = strategy.Ocd_engine.Strategy.name;
    outcome = r.Engine.ended;
    schedule = r.Engine.recorded;
    metrics = Metrics.of_schedule inst r.Engine.recorded;
    dropped_moves = r.Engine.dropped;
    fresh_deliveries = r.Engine.delivered;
  }
