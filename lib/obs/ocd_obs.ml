module Sink = Sink
module Metrics = Metrics
module Span = Span
module Probe = Probe
module Causal = Causal

type t = {
  on : bool;
  metrics : Metrics.t;
  sink : Sink.t;
  probe : Probe.t option;
}

let disabled =
  { on = false; metrics = Metrics.disabled; sink = Sink.null; probe = None }

let create ?(sink = Sink.null) ?probe () =
  { on = true; metrics = Metrics.create (); sink; probe }

let probe t = if t.on then t.probe else None

let child t =
  if not t.on then disabled
  else
    {
      t with
      metrics = Metrics.create ();
      sink = (if Sink.enabled t.sink then Sink.memory () else Sink.null);
    }

let absorb ~into ~pid ~prefix src =
  if into.on then begin
    List.iter
      (fun e -> Sink.emit into.sink { e with Sink.pid })
      (Sink.events src.sink);
    Metrics.merge ~into:into.metrics ~prefix src.metrics
  end
