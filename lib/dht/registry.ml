let names = Ocd_async.Registry.names @ [ "dht-rarest" ]

let find name =
  if name = "dht-rarest" then Some (Dht_rarest.protocol ())
  else Ocd_async.Registry.find name

let find_exn name =
  match find name with
  | Some p -> p
  | None -> invalid_arg (Ocd_async.Registry.unknown ~available:names name)
