(** The black-box flight recorder.

    When armed, {!dump} bundles the last N spans and trace events, every
    recorded fault firing, the current registry snapshot (counters +
    gauges) and the installed {!Series} ring into one JSON artifact. The
    top-level object is a valid Chrome trace_event file — spans as "X"
    events with fault firings interleaved as "i" instants — and the
    extra sections make it replayable via {!load}/{!replay} (and
    [bessctl flightrec]).

    Disarmed (the default), {!dump} is a no-op costing one ref read; the
    store calls it on crash and recovery, the chaos harness on assertion
    failure. *)

(** [arm ~dir ()] enables dumping into [dir] (created on first dump).
    Each dump writes [flightrec-<seq>-<reason>.json]. *)
val arm : ?max_spans:int -> ?max_events:int -> dir:string -> unit -> unit

val disarm : unit -> unit
val armed : unit -> bool

(** The fault registry's recent-firings reader, [(site, ordinal, ts_ns)]
    oldest first. bess_fault sits above bess_obs in the dependency
    order, so it injects its reader here at module-initialisation time. *)
val set_fault_source : (unit -> (string * int * int) list) -> unit

(** The injected reader's current view: recent fault firings as
    [(site, ordinal, ts_ns)], oldest first. The critical-path plane
    reads this to interleave fault firings with captured slow
    transactions without depending on bess_fault. *)
val fault_firings : unit -> (string * int * int) list

(** [set_aux_source name fn] registers (or replaces) a named auxiliary
    JSON section included in every rendered artifact as a top-level
    ["aux_<name>"] member; a producer that raises is dropped from the
    dump. *)
val set_aux_source : string -> (unit -> Json.t) -> unit

val clear_aux_source : string -> unit

(** [iso8601 t] is the Unix time [t] as a UTC ["YYYY-MM-DDThh:mm:ssZ"]
    stamp, the [wall_time] of every dump and bench artifact. *)
val iso8601 : float -> string

(** Render the artifact without writing it (works while disarmed). *)
val render : ?max_spans:int -> ?max_events:int -> reason:string -> unit -> string

(** [dump ~reason ()] writes the artifact and returns its path, or
    [None] while disarmed. *)
val dump : reason:string -> unit -> string option

(** One entry of the replayed timeline. *)
type item =
  | Span_item of {
      kind : string;
      start_ns : int;
      end_ns : int;
      track : int;
      attrs : (string * string) list;
    }
  | Fault_item of { site : string; ordinal : int; ts_ns : int }

val item_ts : item -> int

(** Read and parse a dump file. *)
val load : string -> (Json.t, string) result

(** The Chrome timeline back as typed items sorted by start time, fault
    instants interleaved with the spans they fired inside. *)
val replay : Json.t -> item list

val pp_item : Format.formatter -> item -> unit
