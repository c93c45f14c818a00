(* Causal span tracing: nesting invariants, anomaly reporting
   (out-of-order closes, spans left open at trace end), Chrome JSON
   well-formedness, end-to-end coverage over a live database, and the
   span-kind hygiene check against the central {!Span.kinds} table. *)

module Span = Bess_obs.Span
module Registry = Bess_obs.Registry
module Json = Bess_obs.Json
module Vmem = Bess_vmem.Vmem

(* Run [f] against a private collector, leaving the process-global
   tracing state (collector, current-span cursor, registry binding)
   exactly as it was. *)
let with_collector ?capacity f =
  Registry.with_fresh (fun () ->
      let saved = Span.installed () in
      let c = Span.create ?capacity () in
      Span.install (Some c);
      Fun.protect ~finally:(fun () -> Span.install saved) (fun () -> f c))

let find_kind c kind = List.filter (fun s -> s.Span.kind = kind) (Span.to_list c)

let test_nesting_and_attrs () =
  with_collector (fun c ->
      Span.with_span ~kind:"session.txn" (fun () ->
          Span.advance_ns 10;
          Span.with_span ~attrs:[ ("src", "1") ] ~kind:"net.rpc" (fun () ->
              Span.advance_ns 100;
              Span.annotate "dst" "2");
          Span.advance_ns 10);
      match Span.to_list c with
      | [ rpc; txn ] ->
          Alcotest.(check string) "child closes first" "net.rpc" rpc.Span.kind;
          Alcotest.(check (option int)) "child parented" (Some txn.Span.id) rpc.Span.parent;
          Alcotest.(check (option int)) "root unparented" None txn.Span.parent;
          Alcotest.(check bool) "child within parent" true
            (rpc.Span.start_ns > txn.Span.start_ns && rpc.Span.end_ns < txn.Span.end_ns);
          Alcotest.(check bool) "child wide enough" true (Span.duration rpc >= 100);
          Alcotest.(check bool) "parent covers both advances" true (Span.duration txn >= 120);
          Alcotest.(check (option string)) "opening attr kept" (Some "1")
            (List.assoc_opt "src" rpc.Span.attrs);
          Alcotest.(check (option string)) "annotate lands on current" (Some "2")
            (List.assoc_opt "dst" rpc.Span.attrs)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

let test_enter_finish () =
  with_collector (fun c ->
      let h = Span.enter ~kind:"session.txn" () in
      (* Children opened while the handle is current attach to it. *)
      Span.with_span ~kind:"wal.force" (fun () -> Span.advance_ns 5);
      Span.finish ~attrs:[ ("outcome", "commit") ] h;
      let txn = List.hd (find_kind c "session.txn") in
      let force = List.hd (find_kind c "wal.force") in
      Alcotest.(check (option int)) "child of entered span" (Some txn.Span.id)
        force.Span.parent;
      Alcotest.(check (option string)) "finish attrs appended" (Some "commit")
        (List.assoc_opt "outcome" txn.Span.attrs);
      (* Double close: a no-op that is still counted. *)
      Span.finish h;
      Alcotest.(check int) "double close counted" 1
        (Bess_util.Stats.get (Span.stats c) "span.double_close"))

let test_out_of_order_close_reported () =
  with_collector (fun c ->
      let a = Span.enter ~kind:"session.txn" () in
      let b = Span.enter ~kind:"lock.acquire" () in
      (* Close the parent first: the child must be reported, not lost. *)
      Span.finish a;
      Span.finish b;
      Alcotest.(check int) "out_of_order counted" 1
        (Bess_util.Stats.get (Span.stats c) "span.out_of_order");
      let child = List.hd (find_kind c "lock.acquire") in
      Alcotest.(check (option string)) "span marked" (Some "true")
        (List.assoc_opt "out_of_order" child.Span.attrs);
      (* Reparented past the closed parent: no open ancestor remains, so
         it becomes a root — and the nesting invariant holds vacuously. *)
      Alcotest.(check (option int)) "reparented to open ancestor" None child.Span.parent)

let test_unclosed_reported () =
  with_collector (fun c ->
      let _leak = Span.enter ~kind:"session.txn" () in
      let _leak2 = Span.enter ~kind:"net.rpc" () in
      Span.finish_all c;
      Alcotest.(check int) "unclosed counted" 2
        (Bess_util.Stats.get (Span.stats c) "span.unclosed");
      List.iter
        (fun s ->
          Alcotest.(check (option string))
            (s.Span.kind ^ " marked unclosed") (Some "true")
            (List.assoc_opt "unclosed" s.Span.attrs);
          Alcotest.(check bool) (s.Span.kind ^ " got an end stamp") true
            (s.Span.end_ns >= s.Span.start_ns))
        (Span.to_list c);
      (* Inner closed first: stamps still nest. *)
      match Span.to_list c with
      | [ inner; outer ] ->
          Alcotest.(check bool) "forced closes nest" true
            (inner.Span.start_ns > outer.Span.start_ns
            && inner.Span.end_ns < outer.Span.end_ns)
      | _ -> Alcotest.fail "expected 2 spans")

let test_unknown_kind_rejected () =
  with_collector (fun _c ->
      Alcotest.check_raises "unknown kind raises"
        (Invalid_argument "Span: kind \"no.such.kind\" is not in Span.kinds")
        (fun () -> Span.with_span ~kind:"no.such.kind" (fun () -> ())))

let test_disabled_noop () =
  let saved = Span.installed () in
  Span.install None;
  Fun.protect ~finally:(fun () -> Span.install saved) (fun () ->
      Alcotest.(check bool) "disabled" false (Span.enabled ());
      (* Every entry point must be safe with no collector. *)
      let v = Span.with_span ~kind:"session.txn" (fun () -> 42) in
      Alcotest.(check int) "with_span passes value through" 42 v;
      let h = Span.enter ~kind:"net.rpc" () in
      Span.annotate "k" "v";
      Span.finish h;
      let h' = Span.start ~root:true ~kind:"lock.wait" () in
      Span.finish h')

let test_ring_bounded () =
  with_collector ~capacity:4 (fun c ->
      for _ = 1 to 10 do
        Span.with_span ~kind:"wal.append" (fun () -> ())
      done;
      Alcotest.(check int) "buffer capped" 4 (List.length (Span.to_list c));
      Alcotest.(check int) "evictions counted" 6 (Span.dropped c);
      (* The histogram saw every span, not just the retained ones. *)
      Alcotest.(check int) "histogram complete" 10
        (Bess_util.Histogram.count
           (Option.get (Bess_util.Stats.find_histogram (Span.stats c) "span.wal.append"))))

(* ---- Chrome trace JSON -------------------------------------------------- *)

let test_chrome_json_roundtrip () =
  with_collector (fun c ->
      Span.with_span ~kind:"session.txn" (fun () ->
          Span.advance_ns 10;
          Span.with_span ~attrs:[ ("op", "commit \"quoted\"\n") ] ~kind:"net.rpc" (fun () ->
              Span.advance_ns 1_000);
          Span.with_span ~kind:"wal.force" (fun () -> Span.advance_ns 100_000));
      (* Through the writer and back: what a trace viewer would load. *)
      let root = Json.parse_exn (Json.render (Span.to_chrome_json c)) in
      let events =
        match Json.member "traceEvents" root with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      let str ev k = Option.get (Option.bind (Json.member k ev) Json.to_string) in
      let num ev k = Option.get (Option.bind (Json.member k ev) Json.to_float) in
      Alcotest.(check int) "all spans exported" 3 (List.length events);
      let by_id = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          (* Shape of every event. *)
          Alcotest.(check string) "complete event" "X" (str ev "ph");
          Alcotest.(check bool) "kind is known" true (List.mem (str ev "name") Span.kinds);
          Alcotest.(check bool) "duration non-negative" true (num ev "dur" >= 0.0);
          let id = int_of_string (str (Option.get (Json.member "args" ev)) "id") in
          Hashtbl.replace by_id id ev)
        events;
      (* Nesting: every child's [ts, ts+dur] inside its parent's. The
         0.001us resolution represents 1ns exactly, so exact bounds with
         a float-rounding epsilon. *)
      List.iter
        (fun ev ->
          let args = Option.get (Json.member "args" ev) in
          match Json.member "parent" args with
          | None -> ()
          | Some p -> (
              match Hashtbl.find_opt by_id (int_of_string (Option.get (Json.to_string p))) with
              | None -> ()
              | Some pe ->
                  let ts e = num e "ts" in
                  let fin e = ts e +. num e "dur" in
                  Alcotest.(check bool) "child starts after parent" true
                    (ts ev >= ts pe -. 1e-6);
                  Alcotest.(check bool) "child ends before parent" true
                    (fin ev <= fin pe +. 1e-6)))
        events;
      (* Attributes with JSON metacharacters survive the round trip. *)
      let rpc = List.find (fun ev -> str ev "name" = "net.rpc") events in
      Alcotest.(check string) "attr escaped and recovered" "commit \"quoted\"\n"
        (str (Option.get (Json.member "args" rpc)) "op"))

(* ---- End to end over a live database ------------------------------------ *)

let test_end_to_end_spans () =
  with_collector (fun c ->
      let db = Bess.Db.create_memory ~db_id:701 () in
      let net = Bess.Remote.network () in
      Bess.Remote.serve net (Bess.Db.server db);
      let s = Bess.Remote.session net ~client_id:71 db in
      let ty =
        Bess.Type_desc.register
          (Bess.Catalog.types (Bess.Db.catalog db))
          ~name:"spans_t" ~size:32 ~ref_offsets:[| 0 |]
      in
      Bess.Session.begin_txn s;
      let seg = Bess.Session.create_segment s ~slotted_pages:2 ~data_pages:4 () in
      let o = Bess.Session.create_object s seg ty ~size:32 in
      Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) 99;
      Bess.Session.commit s;
      Span.finish_all c;
      let spans = Span.to_list c in
      List.iter
        (fun kind ->
          Alcotest.(check bool) (kind ^ " present") true
            (List.exists (fun s -> s.Span.kind = kind) spans))
        [ "session.txn"; "net.rpc"; "net.wire"; "server.request"; "lock.acquire";
          "wal.append"; "wal.force"; "vmem.fault"; "cache.miss" ];
      (* Global nesting invariant over everything collected. *)
      let by_id = Hashtbl.create 64 in
      List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
      List.iter
        (fun s ->
          Alcotest.(check bool) "closed" true (s.Span.end_ns >= s.Span.start_ns);
          match s.Span.parent with
          | None -> ()
          | Some pid -> (
              match Hashtbl.find_opt by_id pid with
              | None -> () (* parent evicted or still open at finish_all *)
              | Some p ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s(%d) within %s(%d)" s.Span.kind s.Span.id
                       p.Span.kind p.Span.id)
                    true
                    (s.Span.start_ns >= p.Span.start_ns && s.Span.end_ns <= p.Span.end_ns)))
        spans;
      (* The session.txn root and a transitive net.rpc descendant agree. *)
      Alcotest.(check bool) "some txn has rpc descendants" true
        (List.exists
           (fun rpc ->
             rpc.Span.kind = "net.rpc"
             &&
             let rec root_of s =
               match s.Span.parent with
               | None -> s
               | Some pid -> (
                   match Hashtbl.find_opt by_id pid with
                   | Some p -> root_of p
                   | None -> s)
             in
             (root_of rpc).Span.kind = "session.txn")
           spans))

(* ---- Hygiene: call sites vs the central kinds table ---------------------- *)

let test_span_kinds_complete () =
  (* Every ~kind:"..." literal passed to Span in lib/ must be listed in
     Span.kinds. [:(top)] anchors at the repo root (the test binary runs
     inside the dune sandbox). Skips when git is unavailable. *)
  let ic =
    Unix.open_process_in
      "git grep -ho '~kind:\"[a-z._]*\"' -- ':(top)lib' 2>/dev/null | sort -u"
  in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      let kinds =
        List.filter_map
          (fun line ->
            (* ~kind:"x.y" -> x.y *)
            match String.index_opt line '"' with
            | Some i ->
                let j = String.rindex line '"' in
                if j > i then Some (String.sub line (i + 1) (j - i - 1)) else None
            | None -> None)
          !lines
      in
      (* Trace.record call sites also say ~kind, but always punned or
         computed, never a string literal — so everything the grep finds
         is a Span kind. *)
      Alcotest.(check bool) "grep found the instrumentation" true (kinds <> []);
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%S listed in Span.kinds" k)
            true (List.mem k Span.kinds))
        kinds
  | _ -> () (* git unavailable: nothing to check *)

let suite =
  [
    Alcotest.test_case "nesting_and_attrs" `Quick test_nesting_and_attrs;
    Alcotest.test_case "enter_finish" `Quick test_enter_finish;
    Alcotest.test_case "out_of_order_close_reported" `Quick test_out_of_order_close_reported;
    Alcotest.test_case "unclosed_reported" `Quick test_unclosed_reported;
    Alcotest.test_case "unknown_kind_rejected" `Quick test_unknown_kind_rejected;
    Alcotest.test_case "disabled_noop" `Quick test_disabled_noop;
    Alcotest.test_case "ring_bounded" `Quick test_ring_bounded;
    Alcotest.test_case "chrome_json_roundtrip" `Quick test_chrome_json_roundtrip;
    Alcotest.test_case "end_to_end_spans" `Quick test_end_to_end_spans;
    Alcotest.test_case "span_kinds_complete" `Quick test_span_kinds_complete;
  ]
