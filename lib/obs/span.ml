let complete sink ~pid ~tid ~name ~ts ~dur ?(args = []) () =
  Sink.emit sink { Sink.name; ph = 'X'; ts; dur; id = 0; pid; tid; args }

let instant sink ~pid ~tid ~name ~ts ?(args = []) () =
  Sink.emit sink { Sink.name; ph = 'i'; ts; dur = 0; id = 0; pid; tid; args }

let flow sink ~pid ~tid ~name ~ts ~id phase =
  let ph = match phase with `Start -> 's' | `Step -> 't' | `End -> 'f' in
  Sink.emit sink { Sink.name; ph; ts; dur = 0; id; pid; tid; args = [] }
