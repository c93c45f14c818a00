(* Shard router + presumed-abort 2PC coordinator: routing by the OID
   host field, cross-shard commit/abort over the wire, the participant
   no-vote path (unilateral abort, satellite of ISSUE 9), in-doubt
   transactions keeping their X locks across restart, idempotent
   duplicate decisions, both coordinator-crash windows (undecided =>
   presumed abort; decided => re-drive), and the closed-loop step's
   blocked-retry path (retry-then-commit and give-up). *)

module Fault = Bess_fault.Fault
module Net = Bess_net.Net
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Page_id = Bess_cache.Page_id
module Remote = Bess.Remote
module F = Bess.Fetcher
module Shard = Bess_shard.Shard
module Twopc = Bess_shard.Twopc
module Sched = Bess_sched.Sched
module Driver = Bess_sched.Driver

let i64 v =
  let b = Bytes.create 8 in
  Bess_util.Codec.set_i64 b 0 v;
  b

let slot_value sh ~shard ~rank ~offset =
  Bess_util.Codec.get_i64 (Shard.page_image sh shard rank) offset

let fresh f = Bess_obs.Registry.with_fresh (fun () -> Fun.protect ~finally:Fault.reset f)

(* ---- Routing ------------------------------------------------------------- *)

let test_routing () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:3 () in
  List.iter
    (fun host ->
      let oid = Bess.Oid.make ~host ~db:1 ~seg:2 ~slot:3 ~uniq:4 in
      let want = (host - 1) mod 3 in
      Alcotest.(check int) (Printf.sprintf "host %d shard" host) want (Shard.shard_of_oid sh oid);
      Alcotest.(check int)
        (Printf.sprintf "host %d endpoint" host)
        (want + 1)
        (Shard.endpoint_of_oid sh oid);
      Alcotest.(check int)
        (Printf.sprintf "host %d server" host)
        (want + 1)
        (Bess.Server.id (Shard.server_of_oid sh oid)))
    [ 1; 2; 3; 4; 5; 6 ]

(* ---- Commit and abort over the wire -------------------------------------- *)

let test_cross_shard_commit () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let r = Shard.txn sh ~client:500 ~writes:[ (0, 0, 0, i64 11); (1, 0, 8, i64 22) ] () in
  Alcotest.(check bool) "committed" true (r = `Committed);
  Alcotest.(check int) "shard 0 slot" 11 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "shard 1 slot" 22 (slot_value sh ~shard:1 ~rank:0 ~offset:8);
  Alcotest.(check int) "no locks held" 0 (Shard.locks_held sh);
  Alcotest.(check int) "decision acked and retired" 0 (Twopc.unresolved (Shard.coord sh));
  List.iter
    (fun (ep, tx) ->
      Alcotest.(check bool) "decision durable" true
        (Twopc.has_decision (Shard.coord sh) ~shard:ep ~txn:tx))
    (Shard.last_parts sh);
  (* The decide fan-out fed the 2pc critpath phase via its span kind. *)
  Alcotest.(check bool) "2pc phase exists" true
    (List.mem "2pc" (List.map Bess_obs.Critpath.phase_name Bess_obs.Critpath.phases))

let test_single_shard_commit () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let r = Shard.txn sh ~client:501 ~writes:[ (1, 0, 16, i64 33) ] () in
  Alcotest.(check bool) "committed" true (r = `Committed);
  Alcotest.(check int) "value landed" 33 (slot_value sh ~shard:1 ~rank:0 ~offset:16);
  Alcotest.(check int) "untouched shard clean" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:16);
  Alcotest.(check int) "no locks" 0 (Shard.locks_held sh)

(* Satellite: the Fetcher.f_prepare `Vote_no path. A participant that
   cannot vote yes (its updates are not X-covered) must abort the
   transaction unilaterally and release its locks; the coordinator logs
   nothing and aborts the yes-voter with a decide. *)
let test_vote_no_aborts_everywhere () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let net = Shard.net sh in
  let fa = Remote.fetcher net ~client_id:601 ~server_id:(Shard.endpoint sh 0) in
  let fb = Remote.fetcher net ~client_id:601 ~server_id:(Shard.endpoint sh 1) in
  let pa = (Shard.pages sh 0).(0) and pb = (Shard.pages sh 1).(0) in
  let ta = fa.F.f_begin () in
  let bytes = fa.F.f_fetch_page ~txn:ta pa ~mode:Lock_mode.X in
  let ua : Bess.Server.update =
    { page = pa; offset = 0; before = Bytes.sub bytes 0 8; after = i64 91 }
  in
  let tb = fb.F.f_begin () in
  (* No lock fetched on shard 1: the prepare must vote no. *)
  let ub : Bess.Server.update =
    { page = pb; offset = 0; before = Bytes.make 8 '\000'; after = i64 92 }
  in
  Alcotest.(check bool) "A votes yes" true
    (fa.F.f_prepare ~txn:ta ~coordinator:77 [ ua ] = `Vote_yes);
  Alcotest.(check bool) "B votes no" true
    (fb.F.f_prepare ~txn:tb ~coordinator:77 [ ub ] = `Vote_no);
  (* The no-voter aborted unilaterally: transaction gone, locks free. *)
  Alcotest.(check int) "B holds no locks" 0
    (Lock_mgr.n_locks (Bess.Server.locks (Shard.server sh 1)));
  Alcotest.(check (list (pair int int))) "B has nothing prepared" []
    (Bess.Server.prepared_txns (Shard.server sh 1));
  Alcotest.(check int) "B counted the unilateral abort" 1
    (Bess_util.Stats.get (Bess.Server.stats (Shard.server sh 1)) "server.vote_no");
  (* Presumed abort: the coordinator logs nothing and decides abort at
     the yes-voter only. *)
  fa.F.f_decide ~txn:ta `Abort;
  Alcotest.(check int) "A holds no locks" 0
    (Lock_mgr.n_locks (Bess.Server.locks (Shard.server sh 0)));
  Alcotest.(check int) "no write survived on A" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "no write survived on B" 0 (slot_value sh ~shard:1 ~rank:0 ~offset:0)

(* A vote-no inside the full coordinator path: one shard's updates are
   made uncoverable by sabotaging the prepare with a foreign page. *)
let test_coordinator_abort_on_no_vote () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 ~pages_per_shard:2 () in
  let net = Shard.net sh in
  (* Build the parts by hand: begin + lock properly on shard 0, begin
     without locking on shard 1. *)
  let f0 = Remote.fetcher net ~client_id:602 ~server_id:(Shard.endpoint sh 0) in
  let f1 = Remote.fetcher net ~client_id:602 ~server_id:(Shard.endpoint sh 1) in
  let p0 = (Shard.pages sh 0).(0) and p1 = (Shard.pages sh 1).(0) in
  let t0 = f0.F.f_begin () in
  let b0 = f0.F.f_fetch_page ~txn:t0 p0 ~mode:Lock_mode.X in
  let u0 : Bess.Server.update =
    { page = p0; offset = 0; before = Bytes.sub b0 0 8; after = i64 81 }
  in
  let t1 = f1.F.f_begin () in
  let u1 : Bess.Server.update =
    { page = p1; offset = 0; before = Bytes.make 8 '\000'; after = i64 82 }
  in
  let r =
    Twopc.commit (Shard.coord sh)
      ~parts:[ (Shard.endpoint sh 0, t0, [ u0 ]); (Shard.endpoint sh 1, t1, [ u1 ]) ]
  in
  Alcotest.(check bool) "aborted" true (r = `Aborted);
  Alcotest.(check int) "no locks anywhere" 0 (Shard.locks_held sh);
  Alcotest.(check int) "nothing landed on shard 0" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "nothing landed on shard 1" 0 (slot_value sh ~shard:1 ~rank:0 ~offset:0);
  Alcotest.(check bool) "no decision logged (presumed abort)" false
    (Twopc.has_decision (Shard.coord sh) ~shard:(Shard.endpoint sh 0) ~txn:t0);
  Alcotest.(check int) "nothing pending" 0 (Twopc.unresolved (Shard.coord sh))

(* ---- In-doubt transactions keep their locks across restart --------------- *)

(* Satellite regression: a participant that crashes while prepared must
   come back holding its X locks (strict 2PL across the restart), so no
   one reads its undecided writes; resolution by coordinator query then
   releases them. *)
let test_in_doubt_keeps_locks_across_restart () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  (* Crash shard 1 at the moment both participants are prepared. *)
  let chaos () = Shard.crash_shard sh 1 in
  let r = Shard.txn ~chaos sh ~client:603 ~writes:[ (0, 0, 0, i64 71); (1, 0, 0, i64 72) ] () in
  (* The coordinator decided commit; shard 1 lost its volatile state. *)
  Alcotest.(check bool) "committed" true (r = `Committed);
  let outcome = Shard.recover_shard sh 1 in
  Alcotest.(check int) "one in-doubt transaction" 1 (List.length outcome.in_doubt);
  Alcotest.(check bool) "X locks reacquired" true
    (Bess_util.Stats.get (Bess.Server.stats (Shard.server sh 1)) "server.indoubt_relocks" >= 1);
  (* Another client must NOT get at the undecided write. *)
  let f = Remote.fetcher (Shard.net sh) ~client_id:604 ~server_id:(Shard.endpoint sh 1) in
  let t2 = f.F.f_begin () in
  let p1 = (Shard.pages sh 1).(0) in
  Alcotest.(check bool) "reader blocks on the in-doubt lock" true
    (match f.F.f_fetch_page ~txn:t2 p1 ~mode:Lock_mode.X with
    | exception F.Would_block -> true
    | _ -> false);
  (* Resolution: the decision is durable at the coordinator => commit. *)
  let resolved, unresolved = Shard.resolve_in_doubt sh in
  Alcotest.(check (pair int int)) "resolved by query" (1, 0) (resolved, unresolved);
  let bytes = f.F.f_fetch_page ~txn:t2 p1 ~mode:Lock_mode.X in
  Alcotest.(check int) "committed write visible after resolution" 72
    (Bess_util.Codec.get_i64 bytes 0);
  f.F.f_abort ~txn:t2;
  Alcotest.(check int) "no locks leaked" 0 (Shard.locks_held sh);
  Alcotest.(check int) "nothing in doubt" 0 (Shard.in_doubt sh)

(* ---- Idempotent decisions ------------------------------------------------ *)

let test_duplicate_decide_is_noop () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  let r = Shard.txn sh ~client:605 ~writes:[ (0, 0, 0, i64 61); (1, 0, 0, i64 62) ] () in
  Alcotest.(check bool) "committed" true (r = `Committed);
  let coord = Shard.coord sh in
  (* Re-deliver the commit decision with a fresh rid, as a re-drive
     after the dedup window aged would: the server must no-op and still
     acknowledge. *)
  List.iter
    (fun (ep, tx) ->
      match
        Net.call (Shard.net sh) ~src:(Twopc.id coord) ~dst:ep
          (Remote.Decide { rid = 987_654 + ep; txn = tx; commit = true })
      with
      | Remote.R_ok -> ()
      | _ -> Alcotest.fail "duplicate decide not acknowledged")
    (Shard.last_parts sh);
  Alcotest.(check bool) "duplicates counted as no-ops" true
    (Bess_util.Stats.get (Bess.Server.stats (Shard.server sh 0)) "server.decide_noops" >= 1);
  Alcotest.(check int) "values unchanged" 61 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "no locks" 0 (Shard.locks_held sh)

(* ---- Coordinator crash windows ------------------------------------------- *)

let test_coordinator_crash_before_decision_presumes_abort () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  Fault.seed 11;
  Fault.configure "2pc.coord.crash_undecided" (Fault.Plan [ 1 ]);
  (match Shard.txn sh ~client:606 ~writes:[ (0, 0, 0, i64 51); (1, 0, 0, i64 52) ] () with
  | exception Twopc.Crashed -> ()
  | _ -> Alcotest.fail "expected a coordinator crash");
  Fault.reset ();
  Alcotest.(check bool) "coordinator down" false (Twopc.up (Shard.coord sh));
  Alcotest.(check int) "both participants prepared" 2 (Shard.in_doubt sh);
  Alcotest.(check int) "nothing to re-drive" 0 (Twopc.recover (Shard.coord sh));
  let resolved, unresolved = Shard.resolve_in_doubt sh in
  Alcotest.(check (pair int int)) "queries resolve both" (2, 0) (resolved, unresolved);
  Alcotest.(check int) "presumed abort on shard 0" 0 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "presumed abort on shard 1" 0 (slot_value sh ~shard:1 ~rank:0 ~offset:0);
  Alcotest.(check int) "no locks leaked" 0 (Shard.locks_held sh);
  Alcotest.(check bool) "presumed aborts counted" true
    (Bess_util.Stats.get (Twopc.stats (Shard.coord sh)) "2pc.presumed_aborts" >= 2)

let test_coordinator_crash_after_decision_redrives () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  Fault.seed 12;
  Fault.configure "2pc.coord.crash_decided" (Fault.Plan [ 1 ]);
  (match Shard.txn sh ~client:607 ~writes:[ (0, 0, 0, i64 41); (1, 0, 0, i64 42) ] () with
  | exception Twopc.Crashed -> ()
  | _ -> Alcotest.fail "expected a coordinator crash");
  Fault.reset ();
  Alcotest.(check int) "both participants prepared" 2 (Shard.in_doubt sh);
  (* Recovery finds the forced decision and re-drives it to completion. *)
  Alcotest.(check int) "re-drive completes" 0 (Twopc.recover (Shard.coord sh));
  Alcotest.(check int) "commit landed on shard 0" 41 (slot_value sh ~shard:0 ~rank:0 ~offset:0);
  Alcotest.(check int) "commit landed on shard 1" 42 (slot_value sh ~shard:1 ~rank:0 ~offset:0);
  Alcotest.(check int) "nothing in doubt" 0 (Shard.in_doubt sh);
  Alcotest.(check int) "no locks leaked" 0 (Shard.locks_held sh);
  Alcotest.(check bool) "re-drives counted" true
    (Bess_util.Stats.get (Twopc.stats (Shard.coord sh)) "2pc.redrives" >= 1)

let test_query_unknown_txn_is_abort () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 () in
  match
    Net.call (Shard.net sh) ~src:1 ~dst:(Twopc.id (Shard.coord sh))
      (Remote.Query_decision { rid = 0; shard = 1; txn = 424_242 })
  with
  | Remote.R_decision b -> Alcotest.(check bool) "absent decision means abort" false b
  | _ -> Alcotest.fail "protocol mismatch"

(* ---- Closed-loop blocked retries ----------------------------------------- *)

(* An outside transaction X-locks page [rank] of shard [shard] directly
   on that shard's server; returns the holder's transaction. *)
let hold sh ~shard ~rank =
  let srv = Shard.server sh shard in
  let tx = Bess.Server.begin_txn srv ~client:900_001 in
  let pid = (Shard.pages sh shard).(rank) in
  match
    Bess.Server.lock srv ~txn:tx
      (Lock_mgr.page_resource ~area:pid.Page_id.area ~page:pid.Page_id.page)
      Lock_mode.X
  with
  | `Granted -> tx
  | _ -> Alcotest.fail "outside holder could not lock"

(* One client, one attempt, on a one-page ring. With the page held and
   its release scheduled, the attempt blocks, parks on the driver's
   guard, retries the same drawn writes once the lock is free, and
   commits: the page ends up holding exactly what an uncontended run of
   the same seed writes. *)
let test_blocked_attempt_retries_same_writes () =
  let cfg = { Driver.default with n_clients = 1; txns_per_client = 1; think_ns = 0; seed = 5 } in
  let run ~contended =
    fresh @@ fun () ->
    let sh = Shard.create ~n:1 ~pages_per_shard:1 () in
    let sched = Sched.create () in
    if contended then begin
      let holder = hold sh ~shard:0 ~rank:0 in
      Sched.schedule sched ~after:1 (fun () ->
          Bess.Server.abort_client (Shard.server sh 0) ~txn:holder)
    end;
    let r = Shard.run ~sched sh ~cross_fraction:0.0 cfg in
    ( r.Shard.driver,
      Bess_util.Stats.get (Sched.stats sched) "sched.lock_retries",
      Bytes.sub (Shard.page_image sh 0 0) 0 8,
      Shard.locks_held sh )
  in
  let free, free_retries, want, _ = run ~contended:false in
  let r, retries, got, locks = run ~contended:true in
  Alcotest.(check int) "uncontended run commits" 1 free.Driver.r_commits;
  Alcotest.(check int) "uncontended run never retries" 0 free_retries;
  Alcotest.(check bool) "blocked attempt retried" true (retries >= 1);
  Alcotest.(check int) "then committed" 1 r.Driver.r_commits;
  Alcotest.(check int) "no give-up" 0 r.Driver.r_give_ups;
  Alcotest.(check bool) "a value was written" false (Bytes.equal want (Bytes.make 8 '\000'));
  Alcotest.(check bool) "retry wrote the same value" true (Bytes.equal want got);
  Alcotest.(check int) "no locks held" 0 locks

(* The lock is never released: every attempt that draws the held page
   parks [max_lock_retries] times and gives up, while the other
   attempts commit around it; once the holder aborts nothing is left
   locked. *)
let test_blocked_attempt_gives_up () =
  fresh @@ fun () ->
  let sh = Shard.create ~n:2 ~pages_per_shard:4 () in
  let holder = hold sh ~shard:0 ~rank:0 in
  let sched = Sched.create () in
  let max_lock_retries = 3 in
  let cfg =
    { Driver.default with n_clients = 4; txns_per_client = 5; think_ns = 10_000;
      max_lock_retries; seed = 8 }
  in
  let r = (Shard.run ~sched sh ~cross_fraction:0.0 cfg).Shard.driver in
  let st = Sched.stats sched in
  Alcotest.(check bool) "some attempt gave up" true (r.Driver.r_give_ups >= 1);
  Alcotest.(check bool) "the others still committed" true (r.Driver.r_commits >= 1);
  Alcotest.(check int) "every attempt accounted for" 20
    (r.Driver.r_commits + r.Driver.r_give_ups);
  Alcotest.(check int) "each give-up spent the whole retry budget"
    (max_lock_retries * r.Driver.r_give_ups)
    (Bess_util.Stats.get st "sched.lock_retries");
  Alcotest.(check int) "only the holder's lock remains" 1 (Shard.locks_held sh);
  Bess.Server.abort_client (Shard.server sh 0) ~txn:holder;
  Alcotest.(check int) "no locks after the holder aborts" 0 (Shard.locks_held sh)

let suite =
  [
    Alcotest.test_case "oid host routing" `Quick test_routing;
    Alcotest.test_case "cross-shard commit" `Quick test_cross_shard_commit;
    Alcotest.test_case "single-shard commit" `Quick test_single_shard_commit;
    Alcotest.test_case "f_prepare vote-no aborts everywhere" `Quick
      test_vote_no_aborts_everywhere;
    Alcotest.test_case "coordinator aborts on a no vote" `Quick
      test_coordinator_abort_on_no_vote;
    Alcotest.test_case "in-doubt keeps X locks across restart" `Quick
      test_in_doubt_keeps_locks_across_restart;
    Alcotest.test_case "duplicate decide is a no-op" `Quick test_duplicate_decide_is_noop;
    Alcotest.test_case "coord crash undecided presumes abort" `Quick
      test_coordinator_crash_before_decision_presumes_abort;
    Alcotest.test_case "coord crash decided re-drives" `Quick
      test_coordinator_crash_after_decision_redrives;
    Alcotest.test_case "query unknown txn answers abort" `Quick test_query_unknown_txn_is_abort;
    Alcotest.test_case "blocked attempt retries the same writes" `Quick
      test_blocked_attempt_retries_same_writes;
    Alcotest.test_case "blocked attempt gives up, others commit" `Quick
      test_blocked_attempt_gives_up;
  ]
