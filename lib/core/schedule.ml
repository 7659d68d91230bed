(* Packed CSR representation, mirroring [Digraph]: moves live in three
   flat int arrays ([src]/[dst]/[tok]) and [offs] gives each step's
   half-open slice, so a million-move schedule is four arrays instead
   of a million boxed [Move.t]s threaded through lists.

   Every schedule is filled by a [Builder]; a value is an immutable
   view of the first [steps] steps of the builder's arrays.  Builder
   writes only ever land past that view (or in fresh arrays after a
   grow), so no later push can change a value already handed out. *)

type t = {
  offs : int array; (* offs.(i)..offs.(i+1) delimit step i *)
  src : int array;
  dst : int array;
  tok : int array;
  steps : int;
}

module Builder = struct
  type schedule = t

  type t = {
    mutable offs : int array;
    mutable src : int array;
    mutable dst : int array;
    mutable tok : int array;
    mutable nsteps : int;
    mutable nmoves : int;
  }

  let create ?(steps_hint = 8) ?(moves_hint = 16) () =
    {
      offs = Array.make (Int.max 2 (steps_hint + 1)) 0;
      src = Array.make (Int.max 1 moves_hint) 0;
      dst = Array.make (Int.max 1 moves_hint) 0;
      tok = Array.make (Int.max 1 moves_hint) 0;
      nsteps = 0;
      nmoves = 0;
    }

  let grow a len = Array.append a (Array.make (Int.max len (Array.length a)) 0)

  let push_move b ~src ~dst ~token =
    if b.nmoves = Array.length b.src then begin
      b.src <- grow b.src b.nmoves;
      b.dst <- grow b.dst b.nmoves;
      b.tok <- grow b.tok b.nmoves
    end;
    b.src.(b.nmoves) <- src;
    b.dst.(b.nmoves) <- dst;
    b.tok.(b.nmoves) <- token;
    b.nmoves <- b.nmoves + 1

  let end_step b =
    if b.nsteps + 1 >= Array.length b.offs then
      b.offs <- grow b.offs (b.nsteps + 2);
    b.nsteps <- b.nsteps + 1;
    b.offs.(b.nsteps) <- b.nmoves

  let to_schedule b : schedule =
    { offs = b.offs; src = b.src; dst = b.dst; tok = b.tok; steps = b.nsteps }
end

let empty = Builder.to_schedule (Builder.create ~steps_hint:1 ~moves_hint:1 ())

let of_steps steps =
  let b = Builder.create ~steps_hint:(List.length steps) () in
  List.iter
    (fun ms ->
      List.iter
        (fun (m : Move.t) ->
          Builder.push_move b ~src:m.src ~dst:m.dst ~token:m.token)
        ms;
      Builder.end_step b)
    steps;
  Builder.to_schedule b

let length t = t.steps
let move_count t = t.offs.(t.steps)

let step_move_count t i =
  if i < 0 || i >= t.steps then 0 else t.offs.(i + 1) - t.offs.(i)

let iter_step t i f =
  if i >= 0 && i < t.steps then
    for k = t.offs.(i) to t.offs.(i + 1) - 1 do
      f ~src:t.src.(k) ~dst:t.dst.(k) ~token:t.tok.(k)
    done

let step t i =
  if i < 0 || i >= t.steps then []
  else begin
    let acc = ref [] in
    for k = t.offs.(i + 1) - 1 downto t.offs.(i) do
      acc := { Move.src = t.src.(k); dst = t.dst.(k); token = t.tok.(k) } :: !acc
    done;
    !acc
  end

let steps t = List.init t.steps (step t)

let drop_trailing_empty t =
  let last = ref (t.steps - 1) in
  while !last >= 0 && step_move_count t !last = 0 do
    decr last
  done;
  (* Trailing steps are empty, so the move prefix is unchanged and the
     shorter view shares the arrays. *)
  if !last = t.steps - 1 then t else { t with steps = !last + 1 }

let iter_moves t f =
  for i = 0 to t.steps - 1 do
    iter_step t i (fun ~src ~dst ~token -> f ~step:i { Move.src; dst; token })
  done
