(** The process-wide metrics registry.

    Substrates register their {!Bess_util.Stats.t} (or a standalone
    {!Bess_util.Histogram.t}, or a gauge callback) under a namespaced key
    at construction time; [snapshot]/[diff] then turn the whole system's
    counters into before/after deltas for a workload, with gauges sampled
    at snapshot time reporting state (cache occupancy, WAL backlog, ...)
    rather than flow. Registering an existing key replaces the binding, so
    the registry reflects the most recently created instance of each
    namespace. *)

type t

val create : unit -> t

(** The default, process-wide registry that substrates register into. *)
val default : t

(** Legal first components of metric names ("cache", "wal", "lock", ...).
    The metric-name hygiene test greps source literals against this table,
    the same way span kinds are checked against {!Span.kinds}. *)
val metric_namespaces : string list

(** [register_stats key stats] binds every counter and histogram of
    [stats] under [key]. Snapshot names flatten as [key ^ "." ^ counter]
    unless the counter already carries the [key ^ "."] prefix. *)
val register_stats : ?registry:t -> string -> Bess_util.Stats.t -> unit

(** [register_histogram key name h] binds a standalone histogram under
    [flatten_key key name] — the same flattening rule as counters, so a
    histogram can never clobber a stats namespace binding. *)
val register_histogram : ?registry:t -> string -> string -> Bess_util.Histogram.t -> unit

(** [register_gauge key name fn] binds a sampled-on-demand gauge under
    [flatten_key key name]. [fn] must be a pure read of substrate state:
    it runs at every snapshot, including from the {!Series} sampler. A
    callback that raises is dropped from the snapshot, not reported as 0. *)
val register_gauge : ?registry:t -> string -> string -> (unit -> int) -> unit

(** Remove the whole namespace [key]: its stats binding plus every
    standalone histogram and gauge flattened under [key ^ "."]. *)
val unregister : ?registry:t -> string -> unit

val keys : ?registry:t -> unit -> string list

(** [with_fresh f] empties the registry (default: the process-wide one)
    for the duration of [f] and restores the previous bindings on the
    way out, exceptions included — scoped isolation for tests and bench
    workloads that register substrates of their own. *)
val with_fresh : ?registry:t -> (unit -> 'a) -> 'a

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_mean : float;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
  h_p999 : int;
  h_buckets : (int * int) list;
      (** cumulative [(inclusive upper bound, count)] pairs up to the
          last non-empty power-of-two bucket *)
}

type snapshot

(** Sorted [(flattened name, value)] counters of a snapshot. *)
val counters : snapshot -> (string * int) list

val histograms : snapshot -> (string * hist_summary) list

(** Sorted [(flattened name, value)] gauges, sampled when the snapshot
    was taken. *)
val gauges : snapshot -> (string * int) list

val snapshot : ?registry:t -> unit -> snapshot

(** [iter_histograms f] calls [f flattened_name hist] for every live
    histogram — those inside registered stats sources and standalone
    ones. The {!Series} sampler reads raw buckets through this to
    compute per-window tail percentiles from bucket deltas. *)
val iter_histograms : ?registry:t -> (string -> Bess_util.Histogram.t -> unit) -> unit

(** Per-counter deltas, [after - before] (zero deltas dropped unless
    [keep_zeros]; missing counters count from 0; shrunken counters yield
    negative deltas). Histogram count/sum are deltas (or the [after]
    instance whole when its count shrank, i.e. the substrate was
    re-created mid-window); the remaining summary fields are reported
    from [after]. Gauges are state, not flow: [after]'s values are
    carried through unchanged. *)
val diff : ?keep_zeros:bool -> before:snapshot -> after:snapshot -> unit -> snapshot

val pp_hist_summary : Format.formatter -> hist_summary -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit

(** Render a snapshot as one JSON object:
    [{"counters":{...},"gauges":{...},"histograms":{...}}]. *)
val json_of_snapshot : snapshot -> Json.t

(** Render a snapshot in Prometheus text exposition format: dots map to
    underscores under a ["bess_"] prefix, labeled counters
    (["net.calls{1->2}"]) become [{label="..."}] series, histograms
    render as summaries (quantile series plus cumulative
    [_bucket{le="..."}] lines from the power-of-two bounds and
    [_sum]/[_count]). *)
val prom_of_snapshot : snapshot -> string

(** A string as a JSON string literal: [Json.render (Json.Str s)]. *)
val json_string : string -> string
