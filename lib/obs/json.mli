(** The observability plane's JSON value, its one writer ({!render})
    and its reader ({!parse}): every artifact is built as a {!t}, and
    [parse (render j) = Ok j] for every finite [j]. Hand-rolled: the
    repo takes no JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact rendering: no whitespace, object fields in list order. An
    {!Int} prints exactly; a {!Num} prints in the shortest form that
    parses back to the same float, always with a ['.'] or an exponent.
    Strings escape ['"'], ['\\'] and control bytes; other bytes (UTF-8
    included) pass through.
    @raise Invalid_argument on a non-finite {!Num}. *)
val render : t -> string

(** [fixed digits x] is [x] rounded through [Printf "%.*f" digits], as a
    {!Num}: an artifact keeps a fixed resolution without padding zeros. *)
val fixed : int -> float -> t

exception Parse_error of string

(** An integer literal with no ['.'] or exponent that fits in an int
    parses to {!Int}, exactly; every other number to {!Num}. *)
val parse : string -> (t, string) result
val parse_exn : string -> t

(** [member name j] is the field [name] of object [j], if any. *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_string : t -> string option

(** [to_float] accepts {!Int} and {!Num}. *)
val to_float : t -> float option

(** [to_int] accepts {!Int}, and {!Num} with no fractional part. *)
val to_int : t -> int option

val to_obj : t -> (string * t) list option

(** Field accessors with defaults: [get_string j name] is [""] (or
    [default]) when the field is missing or not a string, and likewise
    for [get_int] (0), [get_float] (0.0) and [get_list] ([]). *)
val get_string : ?default:string -> t -> string -> string

val get_int : ?default:int -> t -> string -> int
val get_float : ?default:float -> t -> string -> float
val get_list : t -> string -> t list
