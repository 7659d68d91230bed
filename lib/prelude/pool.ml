let default_jobs () = Domain.recommended_domain_count ()

(* True inside a pool worker: nested maps run inline rather than
   spawning domains from domains (which could oversubscribe without
   bound) — and the guard keeps [mapi] reentrant by construction. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let mapi ?(obs = Ocd_obs.disabled) ~jobs f xs =
  if jobs < 1 then invalid_arg "Pool.mapi: jobs must be >= 1";
  let n = List.length xs in
  let jobs = Int.min jobs n in
  let probe = Ocd_obs.probe obs in
  if jobs <= 1 || Domain.DLS.get inside_pool then
    match probe with
    | Some p -> Ocd_obs.Probe.time p "pool/inline" (fun () -> List.mapi f xs)
    | None -> List.mapi f xs
  else begin
    let input = Array.of_list xs in
    let results = Array.make n None in
    let failures = Array.make n None in
    (* Workers claim task indices from one shared counter; an index
       past [n] means the input is drained. *)
    let next = Atomic.make 0 in
    let run_task i =
      try results.(i) <- Some (f i input.(i))
      with e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    (* Worker identity is the spawn index (0 = the calling domain), a
       deterministic label; which tasks a worker claimed, and how long
       they took, depend on scheduling, which is fine: probe rows are
       wall-clock profiling and never part of the deterministic output
       contract. *)
    let worker widx () =
      Domain.DLS.set inside_pool true;
      let run =
        match probe with
        | None -> run_task
        | Some p ->
          let busy = Printf.sprintf "pool/worker-%d" widx in
          fun i -> Ocd_obs.Probe.time p busy (fun () -> run_task i)
      in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run i;
          loop ()
        end
      in
      loop ()
    in
    let helpers = Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    (* The calling domain is worker 0. *)
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set inside_pool false)
      (fun () ->
        worker 0 ();
        Array.iter Domain.join helpers);
    match Array.find_opt Option.is_some failures with
    | Some (Some (e, bt)) -> Printexc.raise_with_backtrace e bt
    | _ ->
      Array.to_list
        (Array.map
           (function
             | Some r -> r
             | None -> assert false (* every index was claimed exactly once *))
           results)
  end

let map ?obs ~jobs f xs = mapi ?obs ~jobs (fun _ x -> f x) xs

let map_scoped ~obs ~jobs ~lane f xs =
  let runs =
    map ~obs ~jobs
      (fun x ->
        let child = Ocd_obs.child obs in
        (f child x, child))
      xs
  in
  List.mapi
    (fun i (x, (r, child)) ->
      let pid, prefix = lane i x in
      Ocd_obs.absorb ~into:obs ~pid ~prefix child;
      r)
    (List.combine xs runs)
