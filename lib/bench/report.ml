type table = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Report.row: cell count mismatch";
  t.rows <- cells :: t.rows

(* RFC 4180: a field containing a comma, double quote, CR or LF is
   wrapped in double quotes, with embedded double quotes doubled. *)
let csv_escape cell =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) cell
  in
  if not needs_quoting then cell
  else begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_string t =
  let buf = Buffer.create 1024 in
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let widths =
    List.fold_left
      (fun acc cells -> List.map2 (fun w c -> max w (String.length c)) acc cells)
      (List.map (fun _ -> 0) t.columns)
      all
  in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let add_row cells =
    Buffer.add_string buf "  ";
    List.iter2
      (fun w c ->
        Buffer.add_string buf (pad w c);
        Buffer.add_string buf "  ")
      widths cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Printf.sprintf "-- %s\n" t.title);
  add_row t.columns;
  add_row (List.map (fun w -> String.make w '-') widths);
  List.iter add_row rows;
  (* CSV mirror for machine consumption. *)
  let title = csv_escape t.title in
  List.iter
    (fun cells ->
      Buffer.add_string buf
        (Printf.sprintf "csv,%s,%s\n" title
           (String.concat "," (List.map csv_escape cells))))
    rows;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let section_string title = Printf.sprintf "\n==== %s ====\n\n" title

let render t = print_string (to_string t)

let section title =
  print_string (section_string title);
  flush stdout

let note fmt =
  Format.kasprintf
    (fun s ->
      print_string (Printf.sprintf "  %s\n" s);
      flush stdout)
    fmt
