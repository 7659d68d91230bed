let constructors =
  [
    ("async-local", Local_rarest.protocol);
    ("async-push", Random_push.protocol);
    ("flood-plan", Flood_plan.protocol);
  ]

let names = List.map fst constructors

let find name =
  Option.map (fun (_, make) -> make ()) (List.find_opt (fun (n, _) -> n = name) constructors)

let unknown ~available name =
  Printf.sprintf "unknown protocol %S (available: %s)" name
    (String.concat ", " available)

let find_exn name =
  match find name with
  | Some p -> p
  | None -> invalid_arg (unknown ~available:names name)
