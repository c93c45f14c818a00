(* Causal span tracing on the simulated clock.

   The registry (PR 1) answers "how many" — faults taken, forces issued,
   messages sent. Spans answer "where the time went in *this* request":
   each one is a timed step of a causal chain, parented to whatever was
   ambient when it opened. The ambient context is a dynamically-scoped
   cell: [with_span]/[enter] swap it, so the net layer, the fault
   handler and the lock table attach children without any explicit
   context argument threading through the request path.

   Time is a process-wide simulated-nanosecond counter. Substrates with
   a cost model advance it ([Net.account] adds wire time, the fault path
   adds a trap cost, the log adds a force cost); every span open/close
   adds one more, which makes all stamps distinct and children nest
   strictly inside their parents — the property the Chrome trace view
   and the nesting tests rely on.

   Everything is a no-op until a collector is installed, so the
   instrumented hot paths pay one branch when tracing is off. *)

type span = {
  id : int;
  mutable parent : int option;
  kind : string;
  start_ns : int;
  mutable end_ns : int; (* -1 while open *)
  mutable attrs : (string * string) list;
}

type t = {
  ring : span option array; (* completed spans, bounded, oldest evicted *)
  mutable head : int;
  mutable length : int;
  mutable next_id : int;
  open_spans : (int, span) Hashtbl.t; (* id -> still-open span *)
  mutable dropped : int;
  by_id : (int, span) Hashtbl.t; (* open + retained completed spans *)
  stats : Bess_util.Stats.t;
}

(* The central table. Opening any other kind raises: a typo'd kind would
   otherwise silently fork its own histogram and break the breakdown. *)
let kinds =
  [
    "bench.workload"; (* one experiment under Report.with_observed *)
    "session.txn"; (* client transaction, begin_txn..commit/abort *)
    "session.fault"; (* fault wave: slotted / data / large *)
    "client.request"; (* one fetcher operation (direct embedding) *)
    "client.backoff"; (* retry backoff wait after a request timeout *)
    "server.request"; (* one server-side operation *)
    "net.rpc"; (* full RPC round trip *)
    "net.wire"; (* simulated wire time of one message *)
    "net.handler"; (* destination handler execution *)
    "net.send"; (* one-way message (callbacks) *)
    "vmem.fault"; (* protection-fault resolution *)
    "cache.miss"; (* miss fill *)
    "cache.evict"; (* eviction, including dirty writeback *)
    "wal.append"; (* one log record append *)
    "wal.force"; (* log force to durable storage *)
    "wal.group_force"; (* one coalesced group-commit force *)
    "wal.ticket_wait"; (* durability-ticket registration to acknowledged durable *)
    "lock.acquire"; (* one lock-table request *)
    "lock.wait"; (* blocked-to-resolved queue time (root span) *)
    "sched.txn"; (* one driver transaction attempt, across events (root span) *)
    "2pc.prepare"; (* coordinator vote collection across all participants *)
    "2pc.decide"; (* coordinator decision fan-out until every ack *)
  ]

let known_kinds =
  let h = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace h k ()) kinds;
  h

let check_kind kind =
  if not (Hashtbl.mem known_kinds kind) then
    invalid_arg (Printf.sprintf "Span: kind %S is not in Span.kinds" kind)

(* ---- The simulated clock and the ambient context ------------------------- *)

let clock = ref 0
let now_ns () = !clock

(* The windowed sampler (Series) hooks clock advances to close sampling
   windows in simulated time. One match on a ref when no hook is
   installed — the same zero-cost bar as the collector branch. The hook
   runs after the clock has moved and must not advance it recursively. *)
let tick_hook : (unit -> unit) option ref = ref None
let set_tick_hook h = tick_hook := h

let advance_ns n =
  if n > 0 then begin
    clock := !clock + n;
    match !tick_hook with None -> () | Some f -> f ()
  end

let the_collector : t option ref = ref None
let current : span option ref = ref None

let install c =
  the_collector := c;
  current := None

let installed () = !the_collector
let enabled () = !the_collector <> None

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  let stats = Bess_util.Stats.create () in
  (* Durations land under "span.<kind>": the registry's flattening rule
     keeps the prefix, so bench_report.json gains the breakdown. *)
  Registry.register_stats "span" stats;
  {
    ring = Array.make capacity None;
    head = 0;
    length = 0;
    next_id = 1;
    open_spans = Hashtbl.create 256;
    dropped = 0;
    by_id = Hashtbl.create 256;
    stats;
  }

(* ---- Open / close --------------------------------------------------------- *)

let open_in c ~parent ~kind ~attrs =
  check_kind kind;
  advance_ns 1;
  let s =
    { id = c.next_id; parent = Option.map (fun p -> p.id) parent; kind;
      start_ns = !clock; end_ns = -1; attrs }
  in
  c.next_id <- c.next_id + 1;
  Hashtbl.replace c.open_spans s.id s;
  Hashtbl.replace c.by_id s.id s;
  s

(* Reparent [s] to its nearest still-open ancestor when its recorded
   parent closed first: the nesting invariant (child within the parent's
   [start,end]) must hold in every rendering, and an honest counter plus
   an attribute report the anomaly instead of hiding it. *)
let rec fix_parent c s =
  match s.parent with
  | None -> ()
  | Some pid -> (
      match Hashtbl.find_opt c.by_id pid with
      | None -> s.parent <- None (* ancestor evicted: treat as root *)
      | Some p ->
          if p.end_ns >= 0 && p.end_ns < s.end_ns then begin
            s.parent <- p.parent;
            fix_parent c s
          end)

let push_completed c s =
  (match c.ring.(c.head) with
  | Some old ->
      Hashtbl.remove c.by_id old.id;
      c.dropped <- c.dropped + 1
  | None -> ());
  c.ring.(c.head) <- Some s;
  c.head <- (c.head + 1) mod Array.length c.ring;
  if c.length < Array.length c.ring then c.length <- c.length + 1

(* An online consumer of completed spans (the critical-path sink).
   Called after the span is fully closed, reparented and pushed; parents
   may still be open, so consumers can walk up via [find_span]. One
   match on a ref when absent — the usual zero-cost bar. *)
let close_hook : (t -> span -> unit) option ref = ref None
let set_close_hook h = close_hook := h

let close_in c s ~attrs =
  if s.end_ns >= 0 then Bess_util.Stats.incr c.stats "span.double_close"
  else begin
    advance_ns 1;
    s.end_ns <- !clock;
    s.attrs <- s.attrs @ attrs;
    Hashtbl.remove c.open_spans s.id;
    let out_of_order =
      match s.parent with
      | None -> false
      | Some pid -> (
          match Hashtbl.find_opt c.by_id pid with
          | Some p -> p.end_ns >= 0 && p.end_ns < s.end_ns
          | None -> false)
    in
    if out_of_order then begin
      Bess_util.Stats.incr c.stats "span.out_of_order";
      s.attrs <- s.attrs @ [ ("out_of_order", "true") ];
      fix_parent c s
    end;
    Bess_util.Stats.observe c.stats ("span." ^ s.kind) (s.end_ns - s.start_ns);
    push_completed c s;
    match !close_hook with None -> () | Some f -> f c s
  end

(* ---- Public span API ------------------------------------------------------ *)

(* A handle remembers its collector (closing survives a later
   [install None]) and, for scoped spans, the ambient span to restore. *)
type opened = { h_span : span; h_col : t; h_restore : span option option }
type handle = opened option

let none : handle = None

let with_span ?(attrs = []) ~kind f =
  match !the_collector with
  | None -> f ()
  | Some c ->
      let parent = !current in
      let s = open_in c ~parent ~kind ~attrs in
      current := Some s;
      Fun.protect
        ~finally:(fun () ->
          current := parent;
          close_in c s ~attrs:[])
        f

let enter ?(attrs = []) ~kind () : handle =
  match !the_collector with
  | None -> None
  | Some c ->
      let parent = !current in
      let s = open_in c ~parent ~kind ~attrs in
      current := Some s;
      Some { h_span = s; h_col = c; h_restore = Some parent }

let start ?(root = false) ?(attrs = []) ~kind () : handle =
  match !the_collector with
  | None -> None
  | Some c ->
      let parent = if root then None else !current in
      let s = open_in c ~parent ~kind ~attrs in
      Some { h_span = s; h_col = c; h_restore = None }

let finish ?(attrs = []) (h : handle) =
  match h with
  | None -> ()
  | Some { h_span; h_col; h_restore } ->
      (match h_restore with
      | Some saved ->
          (* Restore only if this span is still the ambient one: an
             interleaved enter/finish must not clobber a newer context. *)
          (match !current with
          | Some cur when cur.id = h_span.id -> current := saved
          | _ -> ())
      | None -> ());
      close_in h_col h_span ~attrs

(* Make an already-open handle the ambient span for the extent of [f]:
   the scheduler uses this to re-enter a transaction's root span for
   each event-callback segment, so substrate children opened inside the
   segment parent to the right transaction. *)
let with_handle (h : handle) f =
  match h with
  | None -> f ()
  | Some { h_span; _ } ->
      let saved = !current in
      current := Some h_span;
      Fun.protect ~finally:(fun () -> current := saved) f

let annotate key value =
  match !current with
  | None -> ()
  | Some s -> if enabled () then s.attrs <- s.attrs @ [ (key, value) ]

let annotate_handle (h : handle) key value =
  match h with
  | None -> ()
  | Some { h_span; _ } -> h_span.attrs <- h_span.attrs @ [ (key, value) ]

let finish_all c =
  (* Close innermost first so each leftover nests inside its parent:
     ids are monotonic, so descending id order is most-recently-opened
     first. *)
  let leftovers =
    List.sort
      (fun a b -> compare b.id a.id)
      (Hashtbl.fold (fun _ s acc -> s :: acc) c.open_spans [])
  in
  List.iter
    (fun s ->
      Bess_util.Stats.incr c.stats "span.unclosed";
      close_in c s ~attrs:[ ("unclosed", "true") ])
    leftovers;
  match !the_collector with
  | Some c' when c' == c -> current := None
  | _ -> ()

(* ---- Inspection ----------------------------------------------------------- *)

let to_list c =
  let cap = Array.length c.ring in
  let first = (c.head - c.length + cap) mod cap in
  List.init c.length (fun i ->
      match c.ring.((first + i) mod cap) with Some s -> s | None -> assert false)

let dropped c = c.dropped
let stats c = c.stats
let find_span c id = Hashtbl.find_opt c.by_id id
let duration s = if s.end_ns >= 0 then s.end_ns - s.start_ns else !clock - s.start_ns

let roots c =
  List.filter
    (fun s ->
      match s.parent with None -> true | Some pid -> not (Hashtbl.mem c.by_id pid))
    (to_list c)

let slowest ?(kind = "session.txn") c =
  let best pool =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some b when duration b >= duration s -> acc
        | _ -> Some s)
      None pool
  in
  match best (List.filter (fun s -> s.kind = kind) (to_list c)) with
  | Some s -> Some s
  | None -> best (roots c)

let children_index c =
  let idx = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some pid when Hashtbl.mem c.by_id pid -> Hashtbl.add idx pid s
      | _ -> ())
    (to_list c);
  idx

let pp_attrs ppf attrs =
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%s" k v) attrs

let pp_tree c ppf root =
  let idx = children_index c in
  let rec go depth s =
    Fmt.pf ppf "%s%-14s %8dns  [%d..%d]%a@," (String.make (2 * depth) ' ') s.kind
      (duration s) s.start_ns s.end_ns pp_attrs s.attrs;
    let kids = List.sort (fun a b -> compare a.start_ns b.start_ns) (Hashtbl.find_all idx s.id) in
    List.iter (go (depth + 1)) kids
  in
  Fmt.pf ppf "@[<v>";
  go 0 root;
  Fmt.pf ppf "@]"

(* ---- Chrome trace_event export -------------------------------------------- *)

(* Complete ("X") events with microsecond stamps: 1 simulated ns renders
   as 0.001us exactly at three decimals, so nesting survives the unit
   change. The track (tid) is the span's root ancestor as far as [find]
   resolves it: each transaction gets its own timeline row in
   chrome://tracing / Perfetto. *)
let chrome_events ~find spans =
  let rec root s =
    match s.parent with
    | None -> s.id
    | Some pid -> ( match find pid with None -> s.id | Some p -> root p)
  in
  let us ns = Json.fixed 3 (float_of_int ns /. 1000.0) in
  List.map
    (fun s ->
      let parent =
        match s.parent with Some p -> [ ("parent", Json.Str (string_of_int p)) ] | None -> []
      in
      Json.Obj
        [ ("name", Str s.kind); ("cat", Str "bess"); ("ph", Str "X"); ("ts", us s.start_ns);
          ("dur", us (duration s)); ("pid", Int 1); ("tid", Int (root s));
          ( "args",
            Obj
              ((("id", Json.Str (string_of_int s.id)) :: parent)
              @ List.map (fun (k, v) -> (k, Json.Str v)) s.attrs) ) ])
    spans

let to_chrome_json c =
  Json.Obj
    [ ("traceEvents", Arr (chrome_events ~find:(Hashtbl.find_opt c.by_id) (to_list c)));
      ("displayTimeUnit", Str "ns") ]
