let argmin (score : 'a -> int) l =
  List.fold_left
    (fun best x ->
      match best with
      | None -> Some (x, score x)
      | Some (_, s) ->
        let sx = score x in
        if sx < s then Some (x, sx) else best)
    None l
  |> Option.map fst

let argmax score l = argmin (fun x -> -score x) l

let min_score (score : 'a -> int) l =
  List.fold_left
    (fun best x ->
      let sx = score x in
      match best with None -> Some sx | Some s -> Some (Int.min s sx))
    None l

let sort_by score l = List.stable_sort (fun a b -> Int.compare (score a) (score b)) l

let rec take n l =
  if n <= 0 then []
  else match l with [] -> [] | x :: rest -> x :: take (n - 1) rest

let range n = List.init n Fun.id

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest
