(* The process-wide metrics registry.

   Every substrate registers its {!Bess_util.Stats.t} (and any standalone
   {!Bess_util.Histogram.t}) under a namespaced key -- "vmem", "cache",
   "wal", "lock", "net", "session", ... -- so a snapshot of the whole
   system's counters can be taken at any point and diffed against another:
   the experiments argue from *counts* (faults taken, protection changes,
   log forces, messages sent), and a before/after delta is what ties a
   workload to the counters it moved.

   Besides counters and histograms the registry holds *gauges*: named
   callbacks sampled on demand at snapshot time, reporting state rather
   than flow -- cache occupancy, WAL backlog, lock-table depth. Gauges are
   what the windowed sampler ({!Series}) and the flight recorder read to
   see the system's shape, not just its throughput.

   Registration replaces an existing binding for the same key: substrates
   register at construction time, so the registry always reflects the most
   recently created instance of each namespace. Keys in a snapshot are
   flattened as [<reg key>.<counter name>], except that a counter already
   carrying its namespace prefix (most do: "vmem.reserve_calls" under
   "vmem") is kept as-is rather than doubled. Standalone histograms and
   gauges are flattened by the same rule, so a histogram registered under
   ("wal", name) can never clobber the "wal" stats namespace. *)

type t = {
  sources : (string, Bess_util.Stats.t) Hashtbl.t;
  hists : (string, Bess_util.Histogram.t) Hashtbl.t; (* key = flattened name *)
  gauges : (string, unit -> int) Hashtbl.t; (* key = flattened name *)
}

let create () =
  { sources = Hashtbl.create 16; hists = Hashtbl.create 8; gauges = Hashtbl.create 16 }

(* The default, process-wide registry that substrates register into. *)
let default = create ()

(* Every metric name is [<namespace>.<rest>] with this table as the set of
   legal first components; the hygiene test greps the source tree for
   metric-name literals and checks them against it (the same pattern as
   Span.kinds for span kinds). Keep sorted. *)
let metric_namespaces =
  [
    "2pc";
    "area";
    "buddy";
    "cache";
    "callback";
    "critpath";
    "event";
    "fault";
    "flat";
    "heat";
    "lob";
    "lock";
    "log";
    "mrc";
    "net";
    "node";
    "oid_store";
    "phys";
    "reorg";
    "sched";
    "server";
    "session";
    "slo";
    "smt";
    "soft";
    "span";
    "state_clock";
    "store";
    "two_level";
    "vmem";
    "wal";
  ]

let flatten_key key name =
  let prefix = key ^ "." in
  if String.length name >= String.length prefix
     && String.sub name 0 (String.length prefix) = prefix
  then name
  else prefix ^ name

let register_stats ?(registry = default) key stats =
  Hashtbl.replace registry.sources key stats

(* Standalone histograms live in their own table keyed by the flattened
   name, so [register_histogram "wal" h] can never shadow the Stats
   binding registered under "wal" (it used to: both kinds shared one
   table and the histogram key bypassed [flatten_key]). *)
let register_histogram ?(registry = default) key name hist =
  Hashtbl.replace registry.hists (flatten_key key name) hist

(* Gauges are registered under a (key, name) pair like histograms; the
   callback must be a pure read of substrate state -- it runs at every
   snapshot, including from the windowed sampler. *)
let register_gauge ?(registry = default) key name fn =
  Hashtbl.replace registry.gauges (flatten_key key name) fn

(* [unregister key] drops the whole namespace: the stats binding plus
   every standalone histogram and gauge whose flattened name lives under
   [key ^ "."]. *)
let unregister ?(registry = default) key =
  Hashtbl.remove registry.sources key;
  let prefix = key ^ "." in
  let in_ns k =
    k = key
    || String.length k >= String.length prefix
       && String.sub k 0 (String.length prefix) = prefix
  in
  let drop tbl =
    let doomed = Hashtbl.fold (fun k _ acc -> if in_ns k then k :: acc else acc) tbl [] in
    List.iter (Hashtbl.remove tbl) doomed
  in
  drop registry.hists;
  drop registry.gauges

let keys ?(registry = default) () =
  let add tbl acc = Hashtbl.fold (fun k _ acc -> k :: acc) tbl acc in
  add registry.sources (add registry.hists (add registry.gauges []))
  |> List.sort_uniq String.compare

(* Scoped reset: the registry is process-global mutable state, so tests
   and bench workloads that build substrates would otherwise leak
   registrations into each other. [f] runs against an emptied registry;
   the previous bindings are restored afterwards, exceptions included. *)
let with_fresh ?(registry = default) f =
  let save tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let restore tbl saved =
    Hashtbl.reset tbl;
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) saved
  in
  let saved_sources = save registry.sources
  and saved_hists = save registry.hists
  and saved_gauges = save registry.gauges in
  Hashtbl.reset registry.sources;
  Hashtbl.reset registry.hists;
  Hashtbl.reset registry.gauges;
  Fun.protect
    ~finally:(fun () ->
      restore registry.sources saved_sources;
      restore registry.hists saved_hists;
      restore registry.gauges saved_gauges)
    f

(* ---- Snapshots ----------------------------------------------------------- *)

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
  h_buckets : (int * int) list; (* cumulative (inclusive upper bound, count) *)
}

type snapshot = {
  counters : (string * int) list; (* sorted by name *)
  hists : (string * hist_summary) list; (* sorted by name *)
  gauges : (string * int) list; (* sorted by name; values sampled at snapshot *)
}

let counters s = s.counters
let histograms s = s.hists
let gauges s = s.gauges

let summarize h =
  {
    h_count = Bess_util.Histogram.count h;
    h_sum = Bess_util.Histogram.sum h;
    h_min = Bess_util.Histogram.min h;
    h_max = Bess_util.Histogram.max h;
    h_mean = Bess_util.Histogram.mean h;
    h_p50 = Bess_util.Histogram.percentile h 50.0;
    h_p90 = Bess_util.Histogram.percentile h 90.0;
    h_p99 = Bess_util.Histogram.percentile h 99.0;
    h_p999 = Bess_util.Histogram.percentile h 99.9;
    h_buckets = Bess_util.Histogram.buckets h;
  }

let by_name (a, _) (b, _) = String.compare a b

(* Iterate every live histogram — those inside registered Stats sources
   plus the standalone table — with flattened names. The windowed
   sampler uses the raw buckets to compute per-window tail percentiles
   from bucket deltas, which a summarized snapshot cannot provide. *)
let iter_histograms ?(registry = default) f =
  Hashtbl.iter
    (fun key st ->
      List.iter
        (fun (name, h) -> f (flatten_key key name) h)
        (Bess_util.Stats.histograms st))
    registry.sources;
  Hashtbl.iter (fun key h -> f key h) registry.hists

let snapshot ?(registry = default) () =
  let counters = ref [] and hists = ref [] in
  Hashtbl.iter
    (fun key st ->
      List.iter
        (fun (name, v) -> counters := (flatten_key key name, v) :: !counters)
        (Bess_util.Stats.to_list st);
      List.iter
        (fun (name, h) -> hists := (flatten_key key name, summarize h) :: !hists)
        (Bess_util.Stats.histograms st))
    registry.sources;
  Hashtbl.iter (fun key h -> hists := (key, summarize h) :: !hists) registry.hists;
  let gauges =
    Hashtbl.fold
      (fun key fn acc ->
        (* A gauge whose substrate died under it (closure raising) is
           dropped from the snapshot rather than fabricated as 0. *)
        match fn () with v -> (key, v) :: acc | exception _ -> acc)
      registry.gauges []
  in
  {
    counters = List.sort by_name !counters;
    hists = List.sort by_name !hists;
    gauges = List.sort by_name gauges;
  }

(* [diff ~before ~after] is the per-counter delta (counters absent from
   [before] count from 0; zero deltas are dropped unless [keep_zeros],
   which the windowed sampler sets so a quiet window still distinguishes
   "untouched counter" from "unregistered counter"). Histogram count/sum
   are diffed the same way; min/max/mean/percentiles are reported from
   [after] -- the power-of-two buckets cannot be "subtracted" into exact
   interval percentiles, and the shape of the whole run is what the
   reports compare. A counter that shrank (its substrate was re-created
   mid-window) yields a negative delta rather than being hidden. Gauges
   are state, not flow: the [after] values are carried through as-is. *)
let diff ?(keep_zeros = false) ~before ~after () =
  let base = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace base k v) before.counters;
  let counters =
    List.filter_map
      (fun (k, v) ->
        let d = v - Option.value ~default:0 (Hashtbl.find_opt base k) in
        if d = 0 && not keep_zeros then None else Some (k, d))
      after.counters
  in
  let hbase = Hashtbl.create 16 in
  List.iter (fun (k, h) -> Hashtbl.replace hbase k h) before.hists;
  let hists =
    List.map
      (fun (k, h) ->
        match Hashtbl.find_opt hbase k with
        | None -> (k, h)
        | Some h0 when h.h_count >= h0.h_count ->
            (k, { h with h_count = h.h_count - h0.h_count; h_sum = h.h_sum - h0.h_sum })
        (* count shrank: the substrate was re-created mid-window, so a
           delta against the dead instance is meaningless -- report the
           new instance whole. *)
        | Some _ -> (k, h))
      after.hists
  in
  { counters; hists; gauges = after.gauges }

(* ---- Rendering ------------------------------------------------------------ *)

let pp_hist_summary ppf h =
  Fmt.pf ppf "n=%d sum=%d mean=%.1f min=%d p50=%d p90=%d p99=%d p999=%d max=%d" h.h_count
    h.h_sum h.h_mean h.h_min h.h_p50 h.h_p90 h.h_p99 h.h_p999 h.h_max

let pp_snapshot ppf s =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (k, v) -> Fmt.pf ppf "%-40s %d" k v))
    s.counters;
  List.iter (fun (k, v) -> Fmt.pf ppf "@,%-40s %d (gauge)" k v) s.gauges;
  List.iter (fun (k, h) -> Fmt.pf ppf "@,%-40s %a" k pp_hist_summary h) s.hists

let json_string s = Json.render (Json.Str s)

let json_of_snapshot s =
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  let hist h =
    Json.Obj
      [ ("count", Int h.h_count); ("sum", Int h.h_sum); ("min", Int h.h_min);
        ("max", Int h.h_max); ("mean", Json.fixed 3 h.h_mean); ("p50", Int h.h_p50);
        ("p90", Int h.h_p90); ("p99", Int h.h_p99); ("p999", Int h.h_p999) ]
  in
  Json.Obj
    [ ("counters", ints s.counters); ("gauges", ints s.gauges);
      ("histograms", Obj (List.map (fun (k, h) -> (k, hist h)) s.hists)) ]

(* ---- Prometheus text exposition ------------------------------------------ *)

(* Metric names map dots to underscores under a "bess_" prefix; labeled
   counters ("net.calls{1->2}", the Stats labeled-counter convention)
   become proper Prometheus labels [bess_net_calls{label="1->2"}].
   Histograms render as summaries (quantile series + _sum/_count). *)

let prom_name s =
  let buf = Buffer.create (String.length s + 5) in
  Buffer.add_string buf "bess_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    s;
  Buffer.contents buf

let split_label k =
  match String.index_opt k '{' with
  | Some i when String.length k > i + 1 && k.[String.length k - 1] = '}' ->
      (String.sub k 0 i, Some (String.sub k (i + 1) (String.length k - i - 2)))
  | _ -> (k, None)

let prom_escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_of_snapshot s =
  let buf = Buffer.create 4096 in
  let typed = Hashtbl.create 64 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (k, v) ->
      let base, label = split_label k in
      let name = prom_name base in
      type_line name "counter";
      match label with
      | None -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      | Some l ->
          Buffer.add_string buf
            (Printf.sprintf "%s{label=\"%s\"} %d\n" name (prom_escape_label l) v))
    s.counters;
  List.iter
    (fun (k, v) ->
      let name = prom_name k in
      type_line name "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name v))
    s.gauges;
  List.iter
    (fun (k, h) ->
      let name = prom_name k in
      type_line name "summary";
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf (Printf.sprintf "%s{quantile=\"%s\"} %d\n" name q v))
        [ ("0.5", h.h_p50); ("0.9", h.h_p90); ("0.99", h.h_p99); ("0.999", h.h_p999) ];
      (* Cumulative buckets from the power-of-two bounds, Prometheus
         histogram convention ([le] is inclusive; the bounds are
         [2^(i+1) - 1], so they are). A scrape-side histogram_quantile
         then agrees with the summary quantiles above. *)
      List.iter
        (fun (le, cum) ->
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name le cum))
        h.h_buckets;
      Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.h_count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" name h.h_sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.h_count))
    s.hists;
  Buffer.contents buf
