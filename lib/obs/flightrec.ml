(* The black-box flight recorder.

   When armed, [dump ~reason] bundles the system's recent behaviour into
   one JSON artifact: the last N completed spans and trace events, every
   recorded fault firing (as Chrome "instant" events on the same
   timeline), the current registry snapshot (counters + gauges) and the
   installed {!Series} ring. The top-level object doubles as a Chrome
   trace_event file — [traceEvents] holds the spans as "X" events with
   the fault firings interleaved as "i" instants, so the artifact loads
   directly in Perfetto — while the extra sections make it replayable by
   [bessctl flightrec] and by tests through {!Json}.

   Dumps happen automatically at the interesting moments: chaos-assertion
   failure, crash, and recovery (the store calls [dump] at each; a no-op
   while disarmed, which is the default — tests and production paths pay
   one ref read).

   Fault data crosses a dependency boundary: bess_fault sits *above*
   bess_obs, so the fault registry hands its recent-firings reader to
   [set_fault_source] at module-initialisation time instead of being
   called directly. *)

type armed_state = {
  dir : string;
  max_spans : int;
  max_events : int;
  mutable seq : int;
}

let state : armed_state option ref = ref None

(* (site, ordinal, ts_ns) of recent fault firings, oldest first. *)
let fault_source : (unit -> (string * int * int) list) ref = ref (fun () -> [])
let set_fault_source f = fault_source := f
let fault_firings () = !fault_source ()

(* Auxiliary sections: other planes (the slow-transaction reservoir)
   register a named JSON producer here and it rides along in every
   dump as a top-level ["aux_<name>"] member. *)
let aux_sources : (string, unit -> Json.t) Hashtbl.t = Hashtbl.create 4
let set_aux_source name fn = Hashtbl.replace aux_sources name fn
let clear_aux_source name = Hashtbl.remove aux_sources name

let arm ?(max_spans = 2048) ?(max_events = 1024) ~dir () =
  state := Some { dir; max_spans; max_events; seq = 0 }

let disarm () = state := None
let armed () = !state <> None

(* ---- Rendering ------------------------------------------------------------- *)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let take_last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

(* Sections are gathered in artifact order: the series flush and the
   aux producers run after the snapshot is taken. *)
let render ?(max_spans = 2048) ?(max_events = 1024) ~reason () =
  let head =
    [ ("bess_flightrec", Json.Int 1); ("reason", Str reason);
      ("wall_time", Str (iso8601 (Unix.gettimeofday ()))); ("sim_now_ns", Int (Span.now_ns ())) ]
  in
  (* Spans + fault instants on one Chrome timeline. Only the retained
     tail is dumped, so each span's root (its track) is resolved against
     a local index of that tail. *)
  let spans =
    match Span.installed () with
    | None -> []
    | Some col ->
        let spans = take_last max_spans (Span.to_list col) in
        let by_id = Hashtbl.create 256 in
        List.iter (fun (s : Span.span) -> Hashtbl.replace by_id s.Span.id s) spans;
        Span.chrome_events ~find:(Hashtbl.find_opt by_id) spans
  in
  let fault (site, ordinal, ts_ns) =
    Json.Obj
      [ ("name", Str ("fault:" ^ site)); ("cat", Str "fault"); ("ph", Str "i");
        ("ts", Json.fixed 3 (float_of_int ts_ns /. 1000.0)); ("s", Str "g"); ("pid", Int 1);
        ("tid", Int 0); ("args", Obj [ ("ordinal", Int ordinal) ]) ]
  in
  let faults = List.map fault (!fault_source ()) in
  (* Primitive event ring (Core.Event feed). *)
  let event (e : Trace.entry) =
    Json.Obj
      [ ("seq", Int e.Trace.seq); ("clock", Int e.Trace.clock); ("kind", Str e.Trace.kind);
        ("detail", Str e.Trace.detail) ]
  in
  let events = List.map event (take_last max_events (Trace.to_list Trace.default)) in
  (* Point-in-time registry state and the windowed series, if sampling. *)
  let snapshot = Registry.json_of_snapshot (Registry.snapshot ()) in
  let series =
    match Series.installed () with
    | None -> []
    | Some series ->
        Series.flush series;
        [ ("series", Series.json_of series) ]
  in
  (* Registered aux sections, sorted for a stable artifact layout. A
     producer that raises is dropped, the same policy as gauges. *)
  let aux =
    Hashtbl.fold (fun name fn acc -> (name, fn) :: acc) aux_sources []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.filter_map (fun (name, fn) ->
           match fn () with body -> Some ("aux_" ^ name, body) | exception _ -> None)
  in
  Json.(
    render
      (Obj
         (head
         @ [ ("traceEvents", Arr (spans @ faults)); ("displayTimeUnit", Str "ns");
             ("events", Arr events); ("snapshot", snapshot) ]
         @ series @ aux)))
  ^ "\n"

(* ---- Dumping ---------------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Sanitise the reason into a filename component. *)
let slug s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '-')
    s

let dump ~reason () =
  match !state with
  | None -> None
  | Some st ->
      let body = render ~max_spans:st.max_spans ~max_events:st.max_events ~reason () in
      mkdir_p st.dir;
      let path =
        Filename.concat st.dir (Printf.sprintf "flightrec-%03d-%s.json" st.seq (slug reason))
      in
      st.seq <- st.seq + 1;
      Out_channel.with_open_bin path (fun oc -> output_string oc body);
      Some path

(* ---- Loading and replay ----------------------------------------------------- *)

type item =
  | Span_item of {
      kind : string;
      start_ns : int;
      end_ns : int;
      track : int;
      attrs : (string * string) list;
    }
  | Fault_item of { site : string; ordinal : int; ts_ns : int }

let item_ts = function
  | Span_item { start_ns; _ } -> start_ns
  | Fault_item { ts_ns; _ } -> ts_ns

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | body -> Json.parse body

let us_to_ns f = int_of_float (Float.round (f *. 1000.0))

(* The Chrome timeline back as typed items, sorted by start time — fault
   instants interleave with the spans they fired inside. *)
let replay j =
  let items =
    List.filter_map
      (fun ev ->
        let name = Json.get_string ev "name" in
        let ts = us_to_ns (Json.get_float ev "ts") in
        let args = Option.value ~default:Json.Null (Json.member "args" ev) in
        match Json.get_string ev "ph" with
        | "X" ->
            let dur = us_to_ns (Json.get_float ev "dur") in
            let attrs =
              List.filter_map
                (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string v))
                (Option.value ~default:[] (Json.to_obj args))
            in
            Some
              (Span_item
                 {
                   kind = name;
                   start_ns = ts;
                   end_ns = ts + dur;
                   track = Json.get_int ev "tid";
                   attrs;
                 })
        | "i" ->
            let site =
              if String.length name > 6 && String.sub name 0 6 = "fault:" then
                String.sub name 6 (String.length name - 6)
              else name
            in
            Some (Fault_item { site; ordinal = Json.get_int args "ordinal"; ts_ns = ts })
        | _ -> None)
      (Json.get_list j "traceEvents")
  in
  List.stable_sort (fun a b -> compare (item_ts a) (item_ts b)) items

let pp_item ppf = function
  | Span_item { kind; start_ns; end_ns; track; attrs } ->
      Fmt.pf ppf "[%10dns] span  %-18s dur=%dns tid=%d" start_ns kind (end_ns - start_ns)
        track;
      List.iter
        (fun (k, v) -> if k <> "id" && k <> "parent" then Fmt.pf ppf " %s=%s" k v)
        attrs
  | Fault_item { site; ordinal; ts_ns } ->
      Fmt.pf ppf "[%10dns] FAULT %-18s ordinal=%d" ts_ns site ordinal
