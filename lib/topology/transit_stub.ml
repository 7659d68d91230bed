open Ocd_prelude

type params = {
  transit_domains : int;
  transit_nodes : int;
  stubs_per_transit_node : int;
  stub_nodes : int;
  intra_edge_prob : float;
  extra_transit_stub : int;
  extra_stub_stub : int;
}

let default_params =
  {
    transit_domains = 2;
    transit_nodes = 4;
    stubs_per_transit_node = 3;
    stub_nodes = 8;
    intra_edge_prob = 0.3;
    extra_transit_stub = 4;
    extra_stub_stub = 4;
  }

let vertex_total p =
  let transit = p.transit_domains * p.transit_nodes in
  transit + (transit * p.stubs_per_transit_node * p.stub_nodes)

(* Above this vertex count [params_for_size] grows the number of stub
   domains instead of their size: bounded domains keep the intra-domain
   O(k^2) edge count constant-sized, so the graph stays O(n) edges all
   the way to millions of vertices. *)
let scale_threshold = 4096

let scale_stub_nodes = 32

let params_for_size n =
  if n < 8 then invalid_arg "Transit_stub.params_for_size: n too small";
  let base = default_params in
  let transit = base.transit_domains * base.transit_nodes in
  if n <= scale_threshold then begin
    (* Keep the backbone shape of [default_params]; scale stub-domain
       size to hit the target count. *)
    let stub_domains = transit * base.stubs_per_transit_node in
    let stub_nodes = max 1 ((n - transit + stub_domains - 1) / stub_domains) in
    { base with stub_nodes }
  end
  else begin
    let per_anchor = transit * scale_stub_nodes in
    let stubs_per_transit_node =
      max 1 ((n - transit + per_anchor - 1) / per_anchor)
    in
    { base with stub_nodes = scale_stub_nodes; stubs_per_transit_node }
  end

(* A connected random graph on [ids]: a random spanning tree (each
   vertex, in shuffled order, links to a random predecessor) plus
   independent extra edges at [prob], skip-sampled.  Extra edges may
   duplicate tree edges; Digraph merges duplicates by summing, which
   only fattens a link, as GT-ITM's multigraph flattening does. *)
let push_domain rng ~prob edge ids =
  Prng.shuffle rng ids;
  for i = 1 to Array.length ids - 1 do
    edge ids.(Prng.int rng i) ids.(i)
  done;
  Random_graph.skip_pairs rng ~k:(Array.length ids) ~p:prob (fun w v ->
      edge ids.(w) ids.(v))

let generate rng ?(weights = Weights.paper_default) p =
  if
    p.transit_domains <= 0 || p.transit_nodes <= 0
    || p.stubs_per_transit_node < 0 || p.stub_nodes <= 0
  then invalid_arg "Transit_stub.generate: bad params";
  let transit_count = p.transit_domains * p.transit_nodes in
  let n = vertex_total p in
  let src = Int_vec.create ~capacity:(4 * n) () in
  let dst = Int_vec.create ~capacity:(4 * n) () in
  let edge u v =
    Int_vec.push src u;
    Int_vec.push dst v
  in
  (* Transit domains: ids [d * transit_nodes .. (d+1) * transit_nodes). *)
  for d = 0 to p.transit_domains - 1 do
    let ids = Array.init p.transit_nodes (fun i -> (d * p.transit_nodes) + i) in
    push_domain rng ~prob:p.intra_edge_prob edge ids
  done;
  (* Backbone: ring of transit domains via random representatives (a
     connected top-level graph, as GT-ITM guarantees). *)
  let pick_in_domain d = (d * p.transit_nodes) + Prng.int rng p.transit_nodes in
  for d = 0 to p.transit_domains - 2 do
    let u = pick_in_domain d in
    let v = pick_in_domain (d + 1) in
    edge u v
  done;
  if p.transit_domains > 2 then begin
    let u = pick_in_domain (p.transit_domains - 1) in
    let v = pick_in_domain 0 in
    edge u v
  end;
  (* Stub domains, laid out after all transit nodes, each anchored to
     its transit node through its first (lowest) id. *)
  let next_id = ref transit_count in
  for anchor = 0 to transit_count - 1 do
    for _ = 1 to p.stubs_per_transit_node do
      let base = !next_id in
      let ids = Array.init p.stub_nodes (fun i -> base + i) in
      next_id := base + p.stub_nodes;
      push_domain rng ~prob:p.intra_edge_prob edge ids;
      edge anchor base
    done
  done;
  (* Extra shortcut edges. *)
  let stub_total = n - transit_count in
  if stub_total > 0 then begin
    for _ = 1 to p.extra_transit_stub do
      let t = Prng.int rng transit_count in
      let s = transit_count + Prng.int rng stub_total in
      edge t s
    done;
    for _ = 1 to p.extra_stub_stub do
      let a = transit_count + Prng.int rng stub_total in
      let b = transit_count + Prng.int rng stub_total in
      if a <> b then edge (min a b) (max a b)
    done
  end;
  let cap = Weights.draw_array rng weights (Int_vec.length src) in
  Ocd_graph.Digraph.of_undirected_arrays ~vertex_count:n
    ~src:(Int_vec.to_array src) ~dst:(Int_vec.to_array dst) ~cap
