type t = { src : int; dst : int; token : int }

let pp ppf { src; dst; token } = Format.fprintf ppf "%d->%d:%d" src dst token
