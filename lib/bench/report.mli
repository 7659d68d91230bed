(** Plain-text experiment reporting: aligned tables plus CSV lines that
    downstream plotting scripts can grep out (lines prefixed
    ["csv,"]).

    Rendering is pure — {!to_string} builds a string, so experiments
    running concurrently can render into private buffers and emit them
    in a deterministic order.  The [render]/[section]/[note]
    conveniences print to stdout. *)

type table

val create : title:string -> columns:string list -> table

val row : table -> string list -> unit
(** Buffers one row (lengths must match the header). *)

val csv_escape : string -> string
(** RFC 4180 field escaping: wraps the cell in double quotes when it
    contains a comma, double quote, CR or LF, doubling embedded double
    quotes; other cells pass through verbatim. *)

val to_string : table -> string
(** The aligned table followed by its CSV mirror
    ([csv,<title>,<cells..>] lines, fields escaped per
    {!csv_escape}) and a trailing blank line. *)

val render : table -> unit
(** [print_string (to_string t)]. *)

val section : string -> unit

val note : ('a, Format.formatter, unit, unit) format4 -> 'a
