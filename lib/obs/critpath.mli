(** Critical-path latency attribution over closed transaction span trees.

    For every transaction root span that closes (a driver ["sched.txn"]
    or embedded ["session.txn"]), the installed sink decomposes the
    root's wall-clock window into exhaustive, non-overlapping phases —
    lock wait (including parked cross-call [lock.wait] root spans
    matched through the shared ["txn"] attribute), WAL force, network
    transit, client retry backoff, server work, scheduler queueing lag
    (from the root's ["sched_lag_ns"] attribute) and uncategorised
    remainder — whose durations sum to the measured latency exactly.

    The attribution is deepest-span-wins: children clipped to their
    parent's uncovered interval own their time; whatever no child
    covers is the parent's self time. Per-phase totals feed histograms
    under the ["critpath"] registry namespace (["critpath.lock_ns"],
    ["critpath.commit_ns"], ...), so {!Series} windows carry per-phase
    tail percentiles; the slowest transactions are retained whole in a
    bounded top-K reservoir that rides along in every {!Flightrec}
    dump (aux section ["slow_txns"]) and behind [bessctl slow].

    Consumption is online via {!Span.set_close_hook}: descendants are
    buffered per open root as they close, so attribution never depends
    on span-ring retention. *)

type phase = Lock | Wal | Net | Backoff | Server | Sched | Twopc | Other

val phases : phase list
val phase_name : phase -> string

(** An exhaustive decomposition: [b_phase_ns] (indexed in {!phases}
    order) sums to [b_total_ns]. *)
type blame = { b_total_ns : int; b_phase_ns : int array }

(** One captured slow transaction: the root, its closed descendants
    plus matched parked lock waits (close order), the blame
    decomposition and the fault firings inside the root window. *)
type slow_txn = {
  st_root : Span.span;
  st_spans : Span.span list;
  st_blame : blame;
  st_faults : (string * int * int) list;
}

type t

(** [create ()] makes a sink keeping the [top_k] (default 32) slowest
    transactions, treating [root_kinds] (default ["sched.txn"] and
    ["session.txn"]) as transaction roots, and registers its counters
    and per-phase histograms in {!Registry.default} under
    ["critpath"]. *)
val create : ?top_k:int -> ?root_kinds:string list -> unit -> t

(** Install (or, with [None], remove) the sink: claims the span close
    hook and registers the ["slow_txns"] aux section with
    {!Flightrec}. *)
val install : t option -> unit

val installed : unit -> t option

(** Counters and histograms ([critpath.txns], [critpath.commit_ns],
    [critpath.<phase>_ns], anomaly counters). *)
val stats : t -> Bess_util.Stats.t

(** Transactions attributed so far. *)
val txns : t -> int

(** Total attributed transaction time. *)
val total_ns : t -> int

(** Cumulative [(phase name, ns)] totals across every attributed
    transaction; sums to {!total_ns}. *)
val blame_totals : t -> (string * int) list

(** The reservoir, slowest first (duration descending, root id
    ascending; at capacity a candidate must be strictly slower than
    the current minimum — ties keep the incumbent). *)
val slow : t -> slow_txn list

(** One line over {!txns}/{!blame_totals} — identical for same-seed
    runs; the bench determinism gate compares these. *)
val fingerprint : t -> string

(** The reservoir as one JSON array (the ["slow_txns"] aux section). *)
val json_of_slow : t -> Json.t

(** Expose the attribution core for tests: decompose one root given
    its closed descendants and parked lock waits. *)
val process_root : t -> Span.span -> unit

(** The close-hook entry point (exposed for direct-feed tests). *)
val on_close : t -> Span.t -> Span.span -> unit
