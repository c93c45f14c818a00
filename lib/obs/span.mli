(** Causal span tracing on the simulated clock.

    A span is one timed step of a request's causal chain — an RPC, a
    fault wave, a log force, a lock wait — with an id, a parent id, a
    kind from the central {!kinds} table, start/end stamps on the
    process-wide simulated clock, and key/value attributes. Completed
    spans live in a bounded per-trace buffer (a {!t} collector)
    alongside the {!Trace} ring; per-kind durations feed a histogram
    registered in the {!Registry} under ["span"], so reports get a
    latency breakdown for free.

    Context propagation is dynamic scoping: {!with_span} (and {!enter})
    make the new span the ambient current span, and children opened
    anywhere below — the net layer, the fault handler, the lock table —
    attach to it without explicit plumbing. Tracing is off until a
    collector is {!install}ed; every entry point is a no-op while
    disabled.

    The clock is a process-wide simulated-nanosecond counter: substrates
    that model costs (wire time, fault traps, log forces) call
    {!advance_ns}, and every span open/close advances it by one, so a
    child's [start, end] always nests strictly inside its parent's. *)

type span = {
  id : int;
  mutable parent : int option;
  kind : string;
  start_ns : int;
  mutable end_ns : int;  (** [-1] while the span is open *)
  mutable attrs : (string * string) list;
}

(** A bounded collector of completed spans. *)
type t

(** An open span; closing is explicit. [none] when tracing is disabled. *)
type handle

(** The central table of every span kind the system may open. Opening a
    kind not listed here raises [Invalid_argument] — a typo'd kind is a
    bug, and the hygiene test greps call sites against this table. *)
val kinds : string list

(** [create ()] makes a collector keeping the last [capacity] completed
    spans (default 65536) and registers its per-kind duration histograms
    in {!Registry.default} under ["span"]. *)
val create : ?capacity:int -> unit -> t

(** Install (or, with [None], remove) the ambient collector. *)
val install : t option -> unit

val installed : unit -> t option
val enabled : unit -> bool

(** Current simulated time in nanoseconds. *)
val now_ns : unit -> int

(** Advance the simulated clock (substrate cost models; non-positive
    amounts are ignored). Cheap enough to call unconditionally. *)
val advance_ns : int -> unit

(** Install (or, with [None], remove) the clock-tick hook: called after
    every positive {!advance_ns}, once the clock has moved. One match on
    a ref when absent — the {!Series} sampler uses it to close sampling
    windows in simulated time. The hook must not advance the clock. *)
val set_tick_hook : (unit -> unit) option -> unit

val none : handle

(** [with_span ~kind f] opens a child of the ambient span, makes it
    current, runs [f], and closes it — on exceptions too. *)
val with_span : ?attrs:(string * string) list -> kind:string -> (unit -> 'a) -> 'a

(** [enter ~kind ()] opens a child of the ambient span and makes it
    current until {!finish}; for spans that cross function boundaries
    (a transaction between [begin_txn] and [commit]). *)
val enter : ?attrs:(string * string) list -> kind:string -> unit -> handle

(** [start ~kind ()] opens a span without making it current. With
    [~root:true] it is parentless — for waits that outlive the stack
    context that opened them (a lock queue entry granted many calls
    later). *)
val start : ?root:bool -> ?attrs:(string * string) list -> kind:string -> unit -> handle

(** Close a span opened by {!enter} or {!start}, appending [attrs].
    Closing [none] or a closed handle is a no-op (the latter counts
    [span.double_close]). A span closed after its parent is counted
    under [span.out_of_order], marked with an [out_of_order] attribute
    and reparented to its nearest still-open ancestor so the nesting
    invariant survives. *)
val finish : ?attrs:(string * string) list -> handle -> unit

(** [with_handle h f] makes the (still-open) span behind [h] the
    ambient current span for the extent of [f], restoring the previous
    context afterwards — for resumable work (scheduler event segments)
    that re-enters a long-lived span across calls. A no-op with
    {!none}. *)
val with_handle : handle -> (unit -> 'a) -> 'a

(** Attach an attribute to the ambient current span, if any. *)
val annotate : string -> string -> unit

(** Attach an attribute to the span behind a handle (open or closed);
    a no-op with {!none}. *)
val annotate_handle : handle -> string -> string -> unit

(** Close every span still open (oldest last), marking each with an
    [unclosed] attribute and counting [span.unclosed] — call at trace
    end so leftovers are reported, not silently dropped. *)
val finish_all : t -> unit

(** Completed spans, oldest close first. *)
val to_list : t -> span list

(** Completed spans evicted from the bounded buffer so far. *)
val dropped : t -> int

(** The per-kind duration histograms and anomaly counters. *)
val stats : t -> Bess_util.Stats.t

(** Look up a span (open, or completed and still retained) by id. *)
val find_span : t -> int -> span option

(** Install (or, with [None], remove) the span-close hook: called once
    per span as it completes, after reparenting and buffering, with the
    collector and the closed span. Parents of the closed span may still
    be open. One match on a ref when absent. The {!Critpath} sink uses
    it to consume transaction trees online, independent of ring
    retention. *)
val set_close_hook : (t -> span -> unit) option -> unit

val duration : span -> int

(** Retained spans whose parent is absent (never set, or evicted). *)
val roots : t -> span list

val slowest : ?kind:string -> t -> span option

(** Indented text timeline of [root] and its retained descendants. *)
val pp_tree : t -> Format.formatter -> span -> unit

(** [spans] as Chrome [trace_event] complete ("X") events with
    microsecond timestamps. Each event's track (tid) is the span's root
    ancestor, following parent links through [find]; an unresolved
    parent ends the walk. *)
val chrome_events : find:(int -> span option) -> span list -> Json.t list

(** The whole buffer in Chrome [trace_event] JSON (complete "X" events,
    microsecond timestamps) — loads in chrome://tracing and Perfetto.
    Each span's track (tid) is its root ancestor, so every transaction
    renders as its own timeline row. *)
val to_chrome_json : t -> Json.t
