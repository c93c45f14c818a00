(* bess_obs: the metrics registry (snapshot/diff, key flattening, JSON)
   and the bounded trace ring, plus the Stats extensions they rely on and
   the event-hook ordering regression. *)

module Registry = Bess_obs.Registry
module Trace = Bess_obs.Trace
module Stats = Bess_util.Stats

let test_registry_snapshot_diff () =
  let reg = Registry.create () in
  let st = Stats.create () in
  Registry.register_stats ~registry:reg "wal" st;
  Stats.incr st "log.appends";
  Stats.add st "forces" 3;
  let before = Registry.snapshot ~registry:reg () in
  Alcotest.(check (list (pair string int)))
    "flattened keys: namespaced kept, bare prefixed"
    [ ("wal.forces", 3); ("wal.log.appends", 1) ]
    (Registry.counters before);
  Stats.incr st "log.appends";
  Stats.incr st "log.appends";
  let after = Registry.snapshot ~registry:reg () in
  let d = Registry.diff ~before ~after () in
  Alcotest.(check (list (pair string int)))
    "diff keeps moved counters only" [ ("wal.log.appends", 2) ]
    (Registry.counters d)

let test_registry_replace_and_histograms () =
  let reg = Registry.create () in
  let st1 = Stats.create () in
  Stats.incr st1 "c";
  Registry.register_stats ~registry:reg "lock" st1;
  (* A re-created substrate re-registers: latest instance wins. *)
  let st2 = Stats.create () in
  Stats.observe st2 "lock.wait_ticks" 4;
  Stats.observe st2 "lock.wait_ticks" 8;
  Registry.register_stats ~registry:reg "lock" st2;
  let snap = Registry.snapshot ~registry:reg () in
  Alcotest.(check (list (pair string int))) "old instance gone" [] (Registry.counters snap);
  (match Registry.histograms snap with
  | [ (name, h) ] ->
      Alcotest.(check string) "histogram key" "lock.wait_ticks" name;
      Alcotest.(check int) "count" 2 h.Registry.h_count;
      Alcotest.(check int) "sum" 12 h.Registry.h_sum
  | l -> Alcotest.fail (Printf.sprintf "expected one histogram, got %d" (List.length l)));
  let json = Bess_obs.Json.render (Registry.json_of_snapshot snap) in
  Alcotest.(check bool) "json has histogram" true
    (let needle = "\"lock.wait_ticks\"" in
     let rec search i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || search (i + 1))
     in
     search 0)

let test_labeled_counters () =
  let st = Stats.create () in
  Stats.incr_labeled st "net.calls" ~label:"1->2";
  Stats.incr_labeled st "net.calls" ~label:"1->2";
  Stats.incr_labeled st "net.calls" ~label:"2->1";
  Alcotest.(check int) "per-label" 2 (Stats.get_labeled st "net.calls" ~label:"1->2");
  Alcotest.(check int) "other label" 1 (Stats.get_labeled st "net.calls" ~label:"2->1");
  Alcotest.(check int) "unseen label" 0 (Stats.get_labeled st "net.calls" ~label:"9->9")

let test_stats_observe () =
  let st = Stats.create () in
  ignore (Stats.histogram st "bytes") (* eager: visible before samples *);
  Alcotest.(check int) "eager histogram listed" 1 (List.length (Stats.histograms st));
  List.iter (Stats.observe st "bytes") [ 1; 2; 4; 100 ];
  let h = Option.get (Stats.find_histogram st "bytes") in
  Alcotest.(check int) "count" 4 (Bess_util.Histogram.count h);
  Alcotest.(check int) "sum" 107 (Bess_util.Histogram.sum h);
  Stats.reset st;
  Alcotest.(check int) "reset empties histograms" 0
    (Bess_util.Histogram.count (Option.get (Stats.find_histogram st "bytes")))

let test_trace_bounded_eviction () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record tr ~kind:"k" ~detail:(string_of_int i)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length tr);
  Alcotest.(check int) "clock counts everything" 10 (Trace.clock tr);
  Alcotest.(check (list string)) "oldest evicted, order kept" [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.detail) (Trace.to_list tr))

let test_trace_filter () =
  let tr = Trace.create ~capacity:16 () in
  Trace.set_filter tr (Some [ "txn_commit" ]);
  Trace.record tr ~kind:"data_fault" ~detail:"seg=1";
  Trace.record tr ~kind:"txn_commit" ~detail:"txn=1";
  Trace.record tr ~kind:"data_fault" ~detail:"seg=2";
  Alcotest.(check int) "only allowed kinds stored" 1 (Trace.length tr);
  Alcotest.(check int) "clock advances even when filtered" 3 (Trace.clock tr);
  (match Trace.to_list tr with
  | [ e ] -> Alcotest.(check int) "clock stamp is record time" 2 e.Trace.clock
  | _ -> Alcotest.fail "one entry expected");
  Trace.set_filter tr None;
  Trace.record tr ~kind:"data_fault" ~detail:"seg=3";
  Alcotest.(check int) "filter cleared" 2 (Trace.length tr)

let test_trace_wrap_exact_capacity () =
  (* Exactly [capacity] records: full ring, nothing evicted yet; one
     more record evicts exactly the oldest. *)
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 4 do
    Trace.record tr ~kind:"k" ~detail:(string_of_int i)
  done;
  Alcotest.(check int) "full at exact capacity" 4 (Trace.length tr);
  Alcotest.(check (list string)) "all four retained" [ "1"; "2"; "3"; "4" ]
    (List.map (fun e -> e.Trace.detail) (Trace.to_list tr));
  Trace.record tr ~kind:"k" ~detail:"5";
  Alcotest.(check (list string)) "wrap evicts only the oldest" [ "2"; "3"; "4"; "5" ]
    (List.map (fun e -> e.Trace.detail) (Trace.to_list tr));
  Alcotest.(check int) "length still capped" 4 (Trace.length tr)

let test_trace_filter_roundtrip () =
  (* set_filter round-trip: Some -> None restores record-everything, and
     entries dropped while filtered still advanced the logical clock
     (the mli contract), so post-filter stamps stay strictly ordered. *)
  let tr = Trace.create ~capacity:16 () in
  Trace.record tr ~kind:"a" ~detail:"";
  Trace.set_filter tr (Some [ "b" ]);
  Trace.record tr ~kind:"a" ~detail:"";
  Trace.record tr ~kind:"b" ~detail:"";
  Trace.set_filter tr None;
  Trace.record tr ~kind:"a" ~detail:"";
  Alcotest.(check int) "filtered entry dropped" 3 (Trace.length tr);
  Alcotest.(check int) "clock counted the dropped record" 4 (Trace.clock tr);
  Alcotest.(check (list int)) "stamps reflect true record times" [ 1; 3; 4 ]
    (List.map (fun e -> e.Trace.clock) (Trace.to_list tr))

let test_registry_with_fresh () =
  let reg = Registry.create () in
  let st = Stats.create () in
  Stats.incr st "c";
  Registry.register_stats ~registry:reg "outer" st;
  (try
     Registry.with_fresh ~registry:reg (fun () ->
         Alcotest.(check (list (pair string int)))
           "registry empty inside" []
           (Registry.counters (Registry.snapshot ~registry:reg ()));
         let st' = Stats.create () in
         Stats.add st' "x" 9;
         Registry.register_stats ~registry:reg "inner" st';
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list (pair string int)))
    "outer bindings restored, inner gone (even on exception)"
    [ ("outer.c", 1) ]
    (Registry.counters (Registry.snapshot ~registry:reg ()))

let test_trace_with_fresh () =
  let tr = Trace.create ~capacity:8 () in
  Trace.record tr ~kind:"outer" ~detail:"1";
  Trace.set_filter tr (Some [ "outer" ]);
  Trace.with_fresh ~trace:tr (fun () ->
      Alcotest.(check int) "ring empty inside" 0 (Trace.length tr);
      Alcotest.(check int) "clock zeroed inside" 0 (Trace.clock tr);
      Trace.record tr ~kind:"inner" ~detail:"x";
      Alcotest.(check int) "filter cleared inside" 1 (Trace.length tr));
  Alcotest.(check (list string)) "outer entries restored" [ "1" ]
    (List.map (fun e -> e.Trace.detail) (Trace.to_list tr));
  Alcotest.(check int) "outer clock restored" 1 (Trace.clock tr);
  Trace.record tr ~kind:"inner" ~detail:"2";
  Alcotest.(check int) "outer filter restored" 1 (Trace.length tr)

let test_event_feeds_trace () =
  let h = Bess.Event.hooks_create () in
  let tr = Trace.create ~capacity:8 () in
  Bess.Event.set_trace h (Some tr);
  Bess.Event.fire h (Bess.Event.Txn_commit { txn = 7 });
  Bess.Event.fire h (Bess.Event.Data_fault { seg = 3 });
  (match Trace.find tr ~kind:"txn_commit" with
  | [ e ] -> Alcotest.(check string) "payload rendered" "txn=7" e.Trace.detail
  | _ -> Alcotest.fail "commit not traced");
  Alcotest.(check int) "both events recorded" 2 (Trace.length tr)

(* Regression: hooks must run in registration order even when many are
   attached to one event (the old list-append registration was quadratic
   and a natural "fix" -- prepending -- would reverse execution order). *)
let test_hook_order_preserved () =
  let h = Bess.Event.hooks_create () in
  Bess.Event.set_trace h None;
  let n = 500 in
  let ran = ref [] in
  for i = 1 to n do
    Bess.Event.register h ~event:"txn_begin" (fun _ -> ran := i :: !ran)
  done;
  Bess.Event.fire h (Bess.Event.Txn_begin { txn = 1 });
  Alcotest.(check (list int)) "registration order" (List.init n (fun i -> i + 1))
    (List.rev !ran)

(* ---- gauges, diff flags, Prometheus exposition ---- *)

let contains hay needle =
  let nl = String.length needle in
  let rec search i =
    i + nl <= String.length hay && (String.sub hay i nl = needle || search (i + 1))
  in
  search 0

let test_registry_gauges () =
  let reg = Registry.create () in
  let v = ref 3 in
  Registry.register_gauge ~registry:reg "cache" "resident_pages" (fun () -> !v);
  Registry.register_gauge ~registry:reg "wal" "wal.unflushed_bytes" (fun () -> 7);
  let snap = Registry.snapshot ~registry:reg () in
  Alcotest.(check (list (pair string int)))
    "gauges sampled and flattened (bare prefixed, namespaced kept)"
    [ ("cache.resident_pages", 3); ("wal.unflushed_bytes", 7) ]
    (Registry.gauges snap);
  v := 10;
  Alcotest.(check (list (pair string int)))
    "a snapshot is a point in time"
    [ ("cache.resident_pages", 3); ("wal.unflushed_bytes", 7) ]
    (Registry.gauges snap);
  (* Latest registration wins, like stats; a raising callback is dropped
     from the snapshot, not fabricated as 0. *)
  Registry.register_gauge ~registry:reg "cache" "resident_pages" (fun () -> 99);
  Registry.register_gauge ~registry:reg "wal" "wal.unflushed_bytes" (fun () ->
      failwith "substrate gone");
  Alcotest.(check (list (pair string int)))
    "replacement visible, raising gauge dropped"
    [ ("cache.resident_pages", 99) ]
    (Registry.gauges (Registry.snapshot ~registry:reg ()));
  let json =
    Bess_obs.Json.render (Registry.json_of_snapshot (Registry.snapshot ~registry:reg ()))
  in
  Alcotest.(check bool) "json carries gauges" true
    (contains json "\"gauges\":{\"cache.resident_pages\":99}")

let test_diff_keep_zeros_and_gauges () =
  let reg = Registry.create () in
  let st = Stats.create () in
  Registry.register_stats ~registry:reg "wal" st;
  let g = ref 5 in
  Registry.register_gauge ~registry:reg "wal" "pending" (fun () -> !g);
  Stats.add st "a" 4;
  Stats.add st "b" 2;
  let before = Registry.snapshot ~registry:reg () in
  Stats.incr st "a";
  g := 9;
  let after = Registry.snapshot ~registry:reg () in
  let d = Registry.diff ~before ~after () in
  Alcotest.(check (list (pair string int)))
    "zero deltas dropped by default" [ ("wal.a", 1) ] (Registry.counters d);
  let dz = Registry.diff ~keep_zeros:true ~before ~after () in
  Alcotest.(check (list (pair string int)))
    "keep_zeros keeps untouched counters"
    [ ("wal.a", 1); ("wal.b", 0) ]
    (Registry.counters dz);
  Alcotest.(check (list (pair string int)))
    "gauges are state, not flow: after's values carried through"
    [ ("wal.pending", 9) ]
    (Registry.gauges d)

let test_diff_negative_and_recreated () =
  let reg = Registry.create () in
  let st = Stats.create () in
  Stats.add st "c" 10;
  Stats.observe st "wal.bytes" 100;
  Stats.observe st "wal.bytes" 50;
  Registry.register_stats ~registry:reg "wal" st;
  let before = Registry.snapshot ~registry:reg () in
  (* The substrate is torn down and re-created mid-window: its counters
     restart from zero, so the delta goes negative and the histogram is
     reported whole rather than as a nonsense negative-count diff. *)
  let st2 = Stats.create () in
  Stats.add st2 "c" 4;
  Stats.observe st2 "wal.bytes" 30;
  Registry.register_stats ~registry:reg "wal" st2;
  let after = Registry.snapshot ~registry:reg () in
  let d = Registry.diff ~before ~after () in
  Alcotest.(check (list (pair string int)))
    "shrunken counter yields a negative delta" [ ("wal.c", -6) ] (Registry.counters d);
  match Registry.histograms d with
  | [ (name, h) ] ->
      Alcotest.(check string) "histogram key" "wal.bytes" name;
      Alcotest.(check int) "re-created instance reported whole" 1 h.Registry.h_count;
      Alcotest.(check int) "sum from the new instance" 30 h.Registry.h_sum
  | l -> Alcotest.fail (Printf.sprintf "expected one histogram, got %d" (List.length l))

let test_histogram_stats_namespace_collision () =
  (* A standalone histogram registered under a key that also binds a
     stats namespace must not clobber it: both flatten into the shared
     dotted namespace and coexist. *)
  let reg = Registry.create () in
  let st = Stats.create () in
  Stats.incr st "log.forces";
  Registry.register_stats ~registry:reg "wal" st;
  let h = Bess_util.Histogram.create () in
  Bess_util.Histogram.observe h 5;
  Registry.register_histogram ~registry:reg "wal" "force_wait" h;
  let snap = Registry.snapshot ~registry:reg () in
  Alcotest.(check (list (pair string int)))
    "stats namespace survives the histogram registration"
    [ ("wal.log.forces", 1) ]
    (Registry.counters snap);
  (match Registry.histograms snap with
  | [ (name, hs) ] ->
      Alcotest.(check string) "histogram flattened uniformly" "wal.force_wait" name;
      Alcotest.(check int) "count" 1 hs.Registry.h_count
  | l -> Alcotest.fail (Printf.sprintf "expected one histogram, got %d" (List.length l)));
  (* And the whole namespace unregisters as one unit. *)
  Registry.register_gauge ~registry:reg "wal" "pending" (fun () -> 1);
  Registry.unregister ~registry:reg "wal";
  let snap = Registry.snapshot ~registry:reg () in
  Alcotest.(check int) "counters gone" 0 (List.length (Registry.counters snap));
  Alcotest.(check int) "histograms gone" 0 (List.length (Registry.histograms snap));
  Alcotest.(check int) "gauges gone" 0 (List.length (Registry.gauges snap))

let test_with_fresh_restores_all_tables () =
  let reg = Registry.create () in
  Registry.register_gauge ~registry:reg "cache" "g" (fun () -> 1);
  let h = Bess_util.Histogram.create () in
  Bess_util.Histogram.observe h 2;
  Registry.register_histogram ~registry:reg "wal" "h" h;
  (try
     Registry.with_fresh ~registry:reg (fun () ->
         Alcotest.(check (list string)) "all tables empty inside" [] (Registry.keys ~registry:reg ());
         Registry.register_gauge ~registry:reg "net" "n" (fun () -> 2);
         failwith "boom")
   with Failure _ -> ());
  let snap = Registry.snapshot ~registry:reg () in
  Alcotest.(check (list (pair string int)))
    "gauges restored on exception, inner gone" [ ("cache.g", 1) ] (Registry.gauges snap);
  Alcotest.(check int) "histograms restored" 1 (List.length (Registry.histograms snap))

let test_prom_exposition () =
  let reg = Registry.create () in
  let st = Stats.create () in
  Stats.incr st "log.forces";
  Stats.incr_labeled st "net.calls" ~label:"1->2";
  Stats.observe st "wal.waits" 8;
  Registry.register_stats ~registry:reg "wal" st;
  Registry.register_gauge ~registry:reg "cache" "resident_pages" (fun () -> 4);
  let s = Registry.prom_of_snapshot (Registry.snapshot ~registry:reg ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true (contains s needle))
    [
      "# TYPE bess_wal_log_forces counter";
      "bess_wal_log_forces 1";
      "bess_wal_net_calls{label=\"1->2\"} 1";
      "# TYPE bess_cache_resident_pages gauge";
      "bess_cache_resident_pages 4";
      "# TYPE bess_wal_waits summary";
      "bess_wal_waits{quantile=\"0.99\"}";
      "bess_wal_waits_sum 8";
      "bess_wal_waits_count 1";
    ]

(* Hygiene: every dotted metric-name literal in lib/ (Stats calls and
   gauge registrations) must be snake_case with its first component in
   Registry.metric_namespaces — the counter analogue of the span-kinds
   check. Skips when git is unavailable. *)
let test_metric_names_hygienic () =
  let slurp cmd =
    let ic = Unix.open_process_in cmd in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with Unix.WEXITED 0 -> Some !lines | _ -> None
  in
  let quoted line =
    match String.index_opt line '"' with
    | Some i ->
        let j = String.rindex line '"' in
        if j > i then Some (String.sub line (i + 1) (j - i - 1)) else None
    | None -> None
  in
  let stats_lits =
    slurp
      "git grep -hoE 'Stats\\.(incr|add|set|observe|incr_labeled|add_labeled|histogram)[^\"]*\"[a-z0-9_.]+\"' -- ':(top)lib' 2>/dev/null | sort -u"
  in
  let gauge_lits =
    slurp
      "git grep -hoE 'register_gauge[^\"]*\"[a-z0-9_]+\" +\"[a-z0-9_.]+\"' -- ':(top)lib' 2>/dev/null | sed 's/.*\" //' | sort -u"
  in
  match (stats_lits, gauge_lits) with
  | Some stats_lines, Some gauge_lines ->
      let names =
        List.filter_map quoted stats_lines @ List.filter_map quoted gauge_lines
      in
      Alcotest.(check bool) "grep found the instrumentation" true (List.length names > 40);
      let is_component c =
        c <> ""
        && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) c
      in
      List.iter
        (fun name ->
          (* Literals like "span." / "event." are prefixes completed at
             runtime: validate the leading component only. *)
          let parts = String.split_on_char '.' name in
          let parts =
            match List.rev parts with "" :: rest -> List.rev rest | _ -> parts
          in
          (match parts with
          | first :: _ ->
              Alcotest.(check bool)
                (Printf.sprintf "%S starts with a registered namespace" name)
                true
                (List.mem first Registry.metric_namespaces)
          | [] -> Alcotest.failf "empty metric literal %S" name);
          List.iter
            (fun c ->
              Alcotest.(check bool)
                (Printf.sprintf "%S component %S is snake_case" name c)
                true (is_component c))
            parts)
        names
  | _ -> () (* git unavailable: nothing to check *)

(* Hygiene: build artifacts must not be tracked. Skips when git (or the
   .git directory) is unavailable in the test environment. *)
let test_no_build_artifacts_tracked () =
  (* [:(top)] anchors the pathspec at the repo root: the test binary runs
     from inside the dune sandbox. *)
  let ic = Unix.open_process_in "git ls-files ':(top)_build' 2>/dev/null | head -1" in
  let line = try Some (input_line ic) with End_of_file -> None in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      (match line with
      | Some f -> Alcotest.failf "_build artifacts are tracked by git (e.g. %s)" f
      | None -> ())
  | _ -> () (* git unavailable: nothing to check *)

let suite =
  [
    Alcotest.test_case "registry_snapshot_diff" `Quick test_registry_snapshot_diff;
    Alcotest.test_case "registry_replace_histograms" `Quick test_registry_replace_and_histograms;
    Alcotest.test_case "labeled_counters" `Quick test_labeled_counters;
    Alcotest.test_case "stats_observe" `Quick test_stats_observe;
    Alcotest.test_case "trace_bounded_eviction" `Quick test_trace_bounded_eviction;
    Alcotest.test_case "trace_filter" `Quick test_trace_filter;
    Alcotest.test_case "trace_wrap_exact_capacity" `Quick test_trace_wrap_exact_capacity;
    Alcotest.test_case "trace_filter_roundtrip" `Quick test_trace_filter_roundtrip;
    Alcotest.test_case "registry_with_fresh" `Quick test_registry_with_fresh;
    Alcotest.test_case "trace_with_fresh" `Quick test_trace_with_fresh;
    Alcotest.test_case "event_feeds_trace" `Quick test_event_feeds_trace;
    Alcotest.test_case "hook_order_preserved" `Quick test_hook_order_preserved;
    Alcotest.test_case "no_build_artifacts_tracked" `Quick test_no_build_artifacts_tracked;
    Alcotest.test_case "registry_gauges" `Quick test_registry_gauges;
    Alcotest.test_case "diff_keep_zeros_and_gauges" `Quick test_diff_keep_zeros_and_gauges;
    Alcotest.test_case "diff_negative_and_recreated" `Quick test_diff_negative_and_recreated;
    Alcotest.test_case "histogram_stats_collision" `Quick test_histogram_stats_namespace_collision;
    Alcotest.test_case "with_fresh_restores_all_tables" `Quick test_with_fresh_restores_all_tables;
    Alcotest.test_case "prom_exposition" `Quick test_prom_exposition;
    Alcotest.test_case "metric_names_hygienic" `Quick test_metric_names_hygienic;
  ]
