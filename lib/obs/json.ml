(* The observability plane's JSON value, its one writer and its reader:
   every artifact is built as a [t] and printed by [render]; [parse]
   reads it back. Hand-rolled -- the repo takes no JSON dependency.
   Numbers keep their kind ([Int] is exact over the whole int range, so
   packed page keys survive), and [render] spells every [Num] with a '.'
   or an exponent, so [parse (render j) = Ok j] for every finite [j]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- Writer --------------------------------------------------------------- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest %g spelling that reads back as [f]: 15 significant
   digits suffice for most values, 17 for every double. A bare integer
   spelling gets ".0" so it parses back as [Num], not [Int]. *)
let num_to_string f =
  if not (Float.is_finite f) then invalid_arg "Json.render: non-finite number";
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec f in
    if prec >= 17 || float_of_string s = f then s else go (prec + 1)
  in
  let s = go 15 in
  if String.exists (function '.' | 'e' -> true | _ -> false) s then s else s ^ ".0"

let add_seq buf opening closing f l =
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      f x)
    l;
  Buffer.add_char buf closing

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f -> Buffer.add_string buf (num_to_string f)
  | Str s -> add_string buf s
  | Arr l -> add_seq buf '[' ']' (add buf) l
  | Obj fields ->
      add_seq buf '{' '}'
        (fun (k, v) ->
          add_string buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields

let render j =
  let buf = Buffer.create 256 in
  add buf j;
  Buffer.contents buf

let fixed digits x = Num (float_of_string (Printf.sprintf "%.*f" digits x))

(* ---- Reader --------------------------------------------------------------- *)

exception Parse_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while match peek c with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> error "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> error "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error "invalid literal at offset %d" c.pos

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then error "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.pos >= String.length c.src then error "unterminated escape";
        let e = c.src.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | 'u' ->
            if c.pos + 4 > String.length c.src then error "truncated \\u escape";
            let hex = String.sub c.src c.pos 4 in
            c.pos <- c.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error "bad \\u escape %S" hex
            in
            (* Surrogate pairs are not recombined: the writer only escapes
               control bytes. *)
            if not (Uchar.is_valid code) then error "unpaired surrogate \\u%s" hex;
            Buffer.add_utf_8_uchar buf (Uchar.of_int code);
            go ()
        | e ->
            Buffer.add_char buf
              (match e with
              | '"' | '\\' | '/' -> e
              | 'n' -> '\n'
              | 't' -> '\t'
              | 'r' -> '\r'
              | 'b' -> '\b'
              | 'f' -> '\012'
              | e -> error "bad escape '\\%c'" e);
            go ())
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  while match peek c with Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  let integral = not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s) in
  match (if integral then int_of_string_opt s else None) with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Num f
      | None -> error "bad number %S at offset %d" s start)

(* The comma-separated items of an array or object, through [closing];
   the opening bracket is already consumed. *)
let parse_items c closing item =
  skip_ws c;
  if peek c = Some closing then begin
    c.pos <- c.pos + 1;
    []
  end
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws c;
      match peek c with
      | Some ',' ->
          c.pos <- c.pos + 1;
          go acc
      | Some x when x = closing ->
          c.pos <- c.pos + 1;
          List.rev acc
      | _ -> error "expected ',' or '%c' at offset %d" closing c.pos
    in
    go []

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      Obj
        (parse_items c '}' (fun () ->
             skip_ws c;
             expect c '"';
             let key = parse_string_body c in
             skip_ws c;
             expect c ':';
             (key, parse_value c)))
  | Some '[' ->
      c.pos <- c.pos + 1;
      Arr (parse_items c ']' (fun () -> parse_value c))
  | Some '"' ->
      c.pos <- c.pos + 1;
      Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

let parse_exn s =
  match parse s with Ok v -> v | Error m -> raise (Parse_error m)

(* ---- Accessors ------------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Num f -> Some f
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_obj = function Obj fields -> Some fields | _ -> None

let get_string ?(default = "") j name =
  Option.value ~default (Option.bind (member name j) to_string)

let get_int ?(default = 0) j name =
  Option.value ~default (Option.bind (member name j) to_int)

let get_float ?(default = 0.0) j name =
  Option.value ~default (Option.bind (member name j) to_float)

let get_list j name = Option.value ~default:[] (Option.bind (member name j) to_list)
