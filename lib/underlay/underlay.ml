open Ocd_core
open Ocd_prelude
open Ocd_graph
module Engine = Ocd_engine.Engine

type t = { physical : Digraph.t; overlay : Digraph.t; route : int array array }

let build ~physical ~host_of ~overlay =
  let n = Digraph.vertex_count overlay in
  if Array.length host_of <> n then
    invalid_arg "Underlay.build: host_of length mismatch";
  let hosts = Digraph.vertex_count physical in
  Array.iter
    (fun h ->
      if h < 0 || h >= hosts then
        invalid_arg "Underlay.build: host out of range")
    host_of;
  let { Digraph.row_off; row_dst; _ } = Digraph.succ_rows overlay in
  let route = Array.make (Digraph.arc_count overlay) [||] in
  (* One Dijkstra per distinct source host covers every overlay arc
     out of the overlay vertices living there: each arc's route is the
     walk up that host's parent array, as physical CSR slots. *)
  let residents = Array.make hosts [] in
  for v = n - 1 downto 0 do
    residents.(host_of.(v)) <- v :: residents.(host_of.(v))
  done;
  let unit_cost _ _ = 1 in
  Array.iteri
    (fun s vs ->
      let tree = lazy (Paths.dijkstra physical ~cost:unit_cost s) in
      List.iter
        (fun src ->
          for i = row_off.(src) to row_off.(src + 1) - 1 do
            let d = host_of.(row_dst.(i)) in
            if d <> s then begin
              let dist, parent = Lazy.force tree in
              if dist.(d) = max_int then
                invalid_arg
                  "Underlay.build: overlay arc not physically routable";
              let links = Array.make dist.(d) 0 in
              let rec walk v k =
                if v <> s then begin
                  let u = parent.(v) in
                  links.(k) <- Digraph.slot physical u v;
                  walk u (k - 1)
                end
              in
              walk d (dist.(d) - 1);
              route.(i) <- links
            end
          done)
        vs)
    residents;
  { physical; overlay; route }

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

let max_link_stress t =
  let { Digraph.row_cap; _ } = Digraph.succ_rows t.overlay in
  let physical_cap = (Digraph.succ_rows t.physical).Digraph.row_cap in
  let load = Array.make (Array.length physical_cap) 0 in
  Array.iteri
    (fun slot links ->
      Array.iter (fun l -> load.(l) <- load.(l) + row_cap.(slot)) links)
    t.route;
  let stress = ref 0.0 in
  Array.iteri
    (fun l demand ->
      stress :=
        Float.max !stress
          (float_of_int demand /. float_of_int physical_cap.(l)))
    load;
  !stress

type run = {
  strategy_name : string;
  outcome : Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  dropped_moves : int;
  fresh_deliveries : int;
}

(* Equal CSR rows make the instance's arc slots the overlay's, so
   the routes built for the overlay index straight by instance slot. *)
let same_arcs a b =
  let ra = Digraph.succ_rows a and rb = Digraph.succ_rows b in
  let same x y =
    Array.length x = Array.length y && Array.for_all2 Int.equal x y
  in
  same ra.Digraph.row_off rb.Digraph.row_off
  && same ra.Digraph.row_dst rb.Digraph.row_dst

let run t ~strategy ~seed (inst : Instance.t) =
  if not (same_arcs inst.graph t.overlay) then
    invalid_arg "Underlay.run: instance graph is not the mapped overlay";
  let admission =
    Engine.Lossy
      {
        visible = (fun _ -> inst);
        capacity = (fun ~step:_ ~src:_ ~dst:_ ~base -> base);
        route = (fun slot -> t.route.(slot));
        link_capacity = (Digraph.succ_rows t.physical).Digraph.row_cap;
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
