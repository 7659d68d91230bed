let sort_by score l = List.stable_sort (fun a b -> Int.compare (score a) (score b)) l

let rec take n l =
  if n <= 0 then []
  else match l with [] -> [] | x :: rest -> x :: take (n - 1) rest

let range n = List.init n Fun.id

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest
