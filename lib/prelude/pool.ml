(* A blocking multi-producer/multi-consumer channel of task indices.
   Producers push before the workers start, but the implementation is
   general: [pop] blocks until an element arrives or the channel is
   closed and drained. *)
module Chan = struct
  type 'a t = {
    queue : 'a Queue.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    mutable closed : bool;
  }

  let create () =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }

  let push t x =
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.Chan.push: closed channel"
    end;
    Queue.push x t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex

  (* [None] once the channel is closed and drained. *)
  let pop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.nonempty t.mutex
    done;
    let result = Queue.take_opt t.queue in
    Mutex.unlock t.mutex;
    result
end

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
    let chan = Chan.create () in
    for i = 0 to n - 1 do
      Chan.push chan i
    done;
    Chan.close chan;
    (* Worker identity is the spawn index (0 = the calling domain), a
       deterministic label; the values behind it — which tasks a worker
       drained, how long it blocked on the channel — are scheduling-
       dependent, which is fine: probe rows are wall-clock profiling
       and never part of the deterministic output contract. *)
    let worker widx () =
      Domain.DLS.set inside_pool true;
      let run_task i =
        try results.(i) <- Some (f i input.(i))
        with e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
      in
      match probe with
      | None ->
        let rec loop () =
          match Chan.pop chan with
          | None -> ()
          | Some i ->
            run_task i;
            loop ()
        in
        loop ()
      | Some p ->
        let busy = Printf.sprintf "pool/worker-%d" widx in
        let wait = Printf.sprintf "pool/worker-%d/queue-wait" widx in
        let rec loop () =
          match Ocd_obs.Probe.time p wait (fun () -> Chan.pop chan) with
          | None -> ()
          | Some i ->
            Ocd_obs.Probe.time p busy (fun () -> run_task i);
            loop ()
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
    let first_failure = ref None in
    for i = n - 1 downto 0 do
      match failures.(i) with
      | Some _ as f -> first_failure := f
      | None -> ()
    done;
    match !first_failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.to_list
        (Array.map
           (function
             | Some r -> r
             | None -> assert false (* every index was popped exactly once *))
           results)
  end

let map ?obs ~jobs f xs = mapi ?obs ~jobs (fun _ x -> f x) xs
