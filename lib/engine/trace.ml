open Ocd_core

let render ?(width = 30) inst schedule =
  let line = Buffer.create 256 in
  ignore
    (Timeline.fold inst schedule ~init:1 ~f:(fun initial v ->
         let initial =
           if v.Timeline.step = 0 then Int.max 1 v.deficit else initial
         in
         let done_frac =
           1.0 -. (float_of_int v.deficit /. float_of_int initial)
         in
         let filled =
           Int.max 0
             (Int.min width (int_of_float (done_frac *. float_of_int width)))
         in
         Buffer.add_string line
           (Printf.sprintf "step %3d |%s%s| %3.0f%% %d left\n" v.step
              (String.make filled '#')
              (String.make (width - filled) '.')
              (100.0 *. done_frac) v.deficit);
         initial));
  Buffer.contents line
