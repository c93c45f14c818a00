(* Bess_sched: the discrete-event heap (tick order, FIFO tie-breaking),
   closed-loop driver determinism (same seed => identical counters, on
   one server and on the shard ring),
   Zipf generator sanity, and churn mid-transaction (a client that
   disconnects while holding locks must not leak the lock table). *)

module Sched = Bess_sched.Sched
module Driver = Bess_sched.Driver
module Prng = Bess_util.Prng
module Stats = Bess_util.Stats
module Lock_mgr = Bess_lock.Lock_mgr
module Span = Bess_obs.Span

let next_db = ref 9300

let fresh_db () =
  incr next_db;
  Bess.Db.create_memory ~db_id:!next_db ()

(* A committed working set of [n_pages] data pages (the driver updates
   pages directly through the server, so only data pages matter). *)
let seed_pages db ~n_pages =
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let pages = ref [] in
  let remaining = ref n_pages in
  while !remaining > 0 do
    let n = Stdlib.min 128 !remaining in
    let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:n () in
    let d = seg.Bess.Session.data_disk in
    for i = 0 to n - 1 do
      pages :=
        { Bess_cache.Page_id.area = d.Bess_storage.Seg_addr.area;
          page = d.Bess_storage.Seg_addr.first_page + i }
        :: !pages
    done;
    remaining := !remaining - n
  done;
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  Array.of_list (List.rev !pages)

(* ---- Event heap ---------------------------------------------------------- *)

let test_heap_order () =
  let sched = Sched.create () in
  let now = Span.now_ns () in
  let order = ref [] in
  let ev tag = fun () -> order := tag :: !order in
  (* Mixed due times, including three sharing one tick: equal ticks must
     run in scheduling order (the seq tie-break), not heap order. *)
  Sched.schedule_at sched ~at:(now + 50) (ev "e");
  Sched.schedule_at sched ~at:(now + 10) (ev "a");
  Sched.schedule_at sched ~at:(now + 10) (ev "b");
  Sched.schedule_at sched ~at:(now + 30) (ev "d");
  Sched.schedule_at sched ~at:(now + 10) (ev "c");
  ignore (Sched.run sched);
  Alcotest.(check (list string)) "tick then FIFO order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order);
  Alcotest.(check int) "heap drained" 0 (Sched.pending sched)

let test_heap_reentrant_schedule () =
  let sched = Sched.create () in
  let now = Span.now_ns () in
  let order = ref [] in
  let ev tag = fun () -> order := tag :: !order in
  (* An event scheduling at its own tick queues behind everything already
     due at that tick. *)
  Sched.schedule_at sched ~at:(now + 10) (fun () ->
      order := "a" :: !order;
      Sched.schedule_at sched ~at:(now + 10) (ev "late"));
  Sched.schedule_at sched ~at:(now + 10) (ev "b");
  ignore (Sched.run sched);
  Alcotest.(check (list string)) "reentrant schedule runs after queued ties"
    [ "a"; "b"; "late" ] (List.rev !order)

let test_heap_order_random () =
  (* 1000 events with random ticks drain in nondecreasing (at, seq) order
     on two independently built heaps, identically. *)
  let build () =
    let sched = Sched.create () in
    let prng = Prng.create 7 in
    let now = Span.now_ns () in
    let order = ref [] in
    for i = 0 to 999 do
      let at = now + Prng.int prng 64 in
      Sched.schedule_at sched ~at (fun () -> order := (at, i) :: !order)
    done;
    ignore (Sched.run sched);
    List.rev !order
  in
  let a = build () in
  let b = build () in
  let rec sorted = function
    | (a1, s1) :: ((a2, s2) :: _ as rest) ->
        (a1 < a2 || (a1 = a2 && s1 < s2)) && sorted rest
    | _ -> true
  in
  (* Due times are absolute, so compare relative shapes: both runs must
     execute the same scheduling sequence. *)
  Alcotest.(check (list int)) "identical execution order" (List.map snd a) (List.map snd b);
  Alcotest.(check bool) "nondecreasing (tick, seq)" true (sorted a)

(* ---- Driver determinism -------------------------------------------------- *)

let driver_cfg =
  { Driver.default with
    n_clients = 40;
    txns_per_client = 15;
    zipf_theta = 1.1;
    hot_fraction = 0.2;
    hot_pages = 4;
    think_ns = 50_000;
    churn = 0.05;
    reconnect_ns = 100_000;
    seed = 99;
  }

let run_driver cfg =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = seed_pages db ~n_pages:32 in
  let sched = Sched.create () in
  let r = Driver.run ~sched server ~pages cfg in
  (r, server, Stats.to_list (Sched.stats sched))

(* The same clients against a fresh 3-shard ring, a third of the
   attempts cross-shard (the shard step ignores churn). *)
let run_shard cfg =
  let sh = Bess_shard.Shard.create ~n:3 ~pages_per_shard:16 () in
  Bess_shard.Shard.run sh ~cross_fraction:0.3 { cfg with n_clients = 12; txns_per_client = 10 }

let test_same_seed_identical () =
  let r1, _, counters1 = run_driver driver_cfg in
  let r2, _, counters2 = run_driver driver_cfg in
  Alcotest.(check bool) "some commits happened" true (r1.Driver.r_commits > 0);
  Alcotest.(check bool) "identical results" true (r1 = r2);
  Alcotest.(check (list (pair string int))) "identical sched counters" counters1 counters2;
  let s1 = run_shard driver_cfg and s2 = run_shard driver_cfg in
  Alcotest.(check bool) "some shard commits happened" true
    (s1.Bess_shard.Shard.driver.Driver.r_commits > 0);
  Alcotest.(check bool) "some cross-shard commits happened" true
    (s1.Bess_shard.Shard.cross_commits > 0);
  Alcotest.(check string) "identical shard fingerprints" s1.Bess_shard.Shard.fingerprint
    s2.Bess_shard.Shard.fingerprint;
  Alcotest.(check bool) "identical shard results" true (s1 = s2)

let test_different_seed_differs () =
  let r1, _, _ = run_driver driver_cfg in
  let r2, _, _ = run_driver { driver_cfg with seed = 100 } in
  (* Commit counts could coincide, so compare the whole result record;
     40 churning clients over a skewed working set make a collision
     across every counter and latency percentile implausible. *)
  Alcotest.(check bool) "different seed diverges" true (r1 <> r2);
  (* The shard fingerprint folds in the CRC of every written page. *)
  let s1 = run_shard driver_cfg and s2 = run_shard { driver_cfg with seed = 100 } in
  Alcotest.(check bool) "different seed diverges on the shard ring" true
    (s1.Bess_shard.Shard.fingerprint <> s2.Bess_shard.Shard.fingerprint)

(* ---- Zipf generator sanity ----------------------------------------------- *)

let test_zipf_skew () =
  let prng = Prng.create 5 in
  let n = 100 in
  let sample = Prng.zipf prng ~n ~theta:1.2 in
  let draws = 20_000 in
  let freq = Array.make n 0 in
  for _ = 1 to draws do
    let r = sample () in
    freq.(r) <- freq.(r) + 1
  done;
  let share lo hi =
    let s = ref 0 in
    for i = lo to hi do
      s := !s + freq.(i)
    done;
    float_of_int !s /. float_of_int draws
  in
  (* theta=1.2, n=100: p(rank 0) = 1/H ~ 0.217, top-10 share ~ 0.55. *)
  let top1 = share 0 0 in
  Alcotest.(check bool)
    (Printf.sprintf "rank-0 share %.3f in [0.15, 0.30]" top1)
    true
    (top1 > 0.15 && top1 < 0.30);
  Alcotest.(check bool) "top-10 majority" true (share 0 9 > 0.45);
  Alcotest.(check bool) "head beats tail" true (freq.(0) > 4 * freq.(50));
  Alcotest.(check bool) "tail still sampled" true (share 50 99 > 0.02)

(* ---- Churn mid-transaction ----------------------------------------------- *)

let test_churn_holding_locks_no_leak () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = seed_pages db ~n_pages:8 in
  let sched = Sched.create () in
  let cfg =
    { Driver.default with
      n_clients = 30;
      txns_per_client = 20;
      hot_fraction = 0.5;
      hot_pages = 2;
      think_ns = 20_000;
      churn = 0.25;
      reconnect_ns = 50_000;
      seed = 7;
    }
  in
  let r = Driver.run ~sched server ~pages cfg in
  let st = Sched.stats sched in
  Alcotest.(check bool) "clients churned" true (r.Driver.r_disconnects > 0);
  Alcotest.(check bool) "some churn hit mid-transaction" true
    (Stats.get st "sched.churn_holding_locks" > 0);
  Alcotest.(check bool) "work still completed" true (r.Driver.r_commits > 0);
  (* The chaos invariant: once every client is done, nothing may remain
     in the lock table — disconnect-holding-locks included. *)
  Alcotest.(check int) "no lock leak" 0 (Lock_mgr.n_locks (Bess.Server.locks server));
  Alcotest.(check int) "no pending events" 0 (Sched.pending sched)

(* ---- Convoy regression: park/wake, no poll-retry --------------------------- *)

(* Each contended acquisition parks once and is resumed by its wake: the
   release hands the lock over in place, so guard timers almost never
   fire and scheduled retry events stay O(contended acquisitions) rather
   than O(retries x waiters). *)
let test_handoff_kills_retry_convoy () =
  let db = fresh_db () in
  let server = Bess.Db.server db in
  Bess.Server.set_detection server `Timeout;
  let pages = seed_pages db ~n_pages:8 in
  let sched = Sched.create () in
  let cfg =
    { Driver.default with
      n_clients = 48;
      txns_per_client = 20;
      hot_fraction = 0.6;
      hot_pages = 2;
      think_ns = 20_000;
      seed = 11;
    }
  in
  let r = Driver.run ~sched server ~pages cfg in
  let st = Sched.stats sched in
  let parks = Stats.get st "sched.lock_parks" in
  let retries = Stats.get st "sched.lock_retries" in
  Alcotest.(check bool) "workload is contended" true (parks > 0);
  Alcotest.(check bool) "parked clients resume via wakes" true
    (Stats.get st "sched.lock_wakeups" > 0);
  (* O(contended acquisitions): at most one guard fire per park. *)
  Alcotest.(check bool)
    (Printf.sprintf "retries (%d) bounded by parks (%d)" retries parks)
    true (retries <= parks);
  Alcotest.(check bool) "work completed" true (r.Driver.r_commits > 0);
  Alcotest.(check int) "no lock leak" 0 (Lock_mgr.n_locks (Bess.Server.locks server))

let suite =
  [
    Alcotest.test_case "heap_order" `Quick test_heap_order;
    Alcotest.test_case "heap_reentrant_schedule" `Quick test_heap_reentrant_schedule;
    Alcotest.test_case "heap_order_random" `Quick test_heap_order_random;
    Alcotest.test_case "same_seed_identical" `Quick test_same_seed_identical;
    Alcotest.test_case "different_seed_differs" `Quick test_different_seed_differs;
    Alcotest.test_case "zipf_skew" `Quick test_zipf_skew;
    Alcotest.test_case "churn_holding_locks_no_leak" `Quick test_churn_holding_locks_no_leak;
    Alcotest.test_case "handoff_kills_retry_convoy" `Quick test_handoff_kills_retry_convoy;
  ]
