(* The BeSS server (section 3).

   "Each BeSS server manages a number of storage areas and it provides
   distributed transaction management, concurrency control and recovery
   for the databases stored in these areas." Strict 2PL, ARIES-like WAL
   (via {!Store}), callback locking for client cache consistency, and a
   prepared state for two-phase commit.

   Two update paths exist, mirroring the two kinds of BeSS applications:

   - Client-cached transactions ({!commit_client}): clients run against
     their own cached segment copies; at commit they ship physical
     before/after images, which the server logs and applies atomically.
     Locks are acquired during the transaction via {!lock}; data and locks
     stay cached at the client between transactions, kept consistent by
     callbacks.

   - In-place transactions ({!update_inplace}): trusted code linked into
     the server (the open-server model of section 2.4/5) updates server
     cache pages directly with immediate logging; rollback uses the ARIES
     undo machinery with CLRs.

   Callback sinks: when a lock request conflicts with another client's
   *cached* (inter-transaction) copy, the server calls that client back.
   The sink is how the transport layer delivers the callback -- a direct
   closure for same-machine clients, an RPC for remote ones. *)

module Page_id = Bess_cache.Page_id
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Callback = Bess_lock.Callback

(* One server.request span per public operation, so client/net spans
   above and lock/store spans below hang off a common parent. *)
let in_request op f =
  Bess_obs.Span.with_span ~kind:"server.request" ~attrs:[ ("op", op) ] f

type update = { page : Page_id.t; offset : int; before : Bytes.t; after : Bytes.t }

type txn_status = Active | Prepared | Ended

type txn_state = {
  txn_id : int;
  client : int;
  mutable last_lsn : int;
  mutable status : txn_status;
  mutable coord : int; (* 2PC coordinator endpoint while Prepared; -1 = none *)
}

type callback_reply = [ `Dropped | `Refused ]

type t = {
  id : int;
  store : Store.t;
  mutable locks : Lock_mgr.t;
  mutable cb : Callback.t;
  txns : (int, txn_state) Hashtbl.t;
  sinks : (int, Lock_mgr.resource -> Lock_mode.t -> callback_reply) Hashtbl.t;
  (* One-shot wake subscriptions for transactions whose lock request
     returned [`Blocked] via {!lock_async}: popped and invoked when the
     lock manager grants the transaction in place on a release. *)
  wake_subs : (int, unit -> unit) Hashtbl.t;
  hooks : Event.hooks;
  mutable next_txn : int;
  mutable detect : [ `Graph | `Timeout ];
  mutable n_prepared : int; (* txns in [Prepared], kept incrementally *)
  stats : Bess_util.Stats.t;
}

(* Ask the other clients caching [r] in a conflicting mode to give it up.
   A client refuses while one of its active transactions holds the lock;
   the requester then blocks and retries. *)
let run_callbacks t ~requester r mode =
  match Callback.request t.cb ~client:requester r mode with
  | `Granted -> `Ok
  | `Callback_needed others ->
      let all_dropped =
        List.for_all
          (fun other ->
            match Hashtbl.find_opt t.sinks other with
            | None ->
                (* Disconnected client: its cache is gone. *)
                Callback.dropped t.cb ~client:other r;
                true
            | Some sink -> (
                Bess_util.Stats.incr t.stats "server.callbacks_sent";
                match sink r mode with
                | `Dropped ->
                    Callback.dropped t.cb ~client:other r;
                    true
                | `Refused ->
                    Bess_util.Stats.incr t.stats "server.callbacks_refused";
                    false))
          others
      in
      if all_dropped then (
        match Callback.request t.cb ~client:requester r mode with
        | `Granted -> `Ok
        | `Callback_needed _ -> `Blocked)
      else `Blocked

(* Wire this server into a (possibly fresh, post-crash) lock manager:
   the grant filter makes in-place handoff respect callback locking —
   e.g. a releasing client keeps its copy cached in S, so handing X to
   the next waiter must call that copy back first, exactly as the
   waiter's own re-poll would — and the wake hook pops the one-shot
   subscription of a granted transaction. *)
let install_lock_hooks t =
  Lock_mgr.set_grant_filter t.locks
    (Some
       (fun ~txn r mode ->
         match Hashtbl.find_opt t.txns txn with
         | None -> true
         | Some ts -> run_callbacks t ~requester:ts.client r mode = `Ok));
  Lock_mgr.set_wake_hook t.locks
    (Some
       (fun ~txn ->
         match Hashtbl.find_opt t.wake_subs txn with
         | None -> ()
         | Some f ->
             Hashtbl.remove t.wake_subs txn;
             Bess_util.Stats.incr t.stats "server.lock_wakes";
             f ()))

let create ?log_path ?log ?group_commit ?(cache_slots = 1024) ?(detect = `Graph) ~id areas =
  let t =
    {
      id;
      store = Store.create ?log_path ?log ?group_commit ~cache_slots areas;
      locks = Lock_mgr.create ();
      cb = Callback.create ();
      txns = Hashtbl.create 64;
      sinks = Hashtbl.create 8;
      wake_subs = Hashtbl.create 16;
      hooks = Event.hooks_create ();
      next_txn = 1;
      detect;
      n_prepared = 0;
      stats =
        (let stats = Bess_util.Stats.create () in
         Bess_obs.Registry.register_stats "server" stats;
         stats);
    }
  in
  install_lock_hooks t;
  Bess_obs.Registry.register_gauge "server" "server.active_txns" (fun () ->
      Hashtbl.length t.txns);
  (* Prepared-but-undecided transactions: they hold X locks until their
     coordinator's verdict arrives, so a stuck coordinator shows up
     here. Counted at the four status transitions rather than by folding
     the transaction table per sample — the windowed sampler and
     `bessctl top` read gauges in a loop. *)
  Bess_obs.Registry.register_gauge "server" "server.in_doubt" (fun () -> t.n_prepared);
  Bess_obs.Registry.register_gauge "server" "server.connected_clients" (fun () ->
      Hashtbl.length t.sinks);
  t

let store t = t.store
let locks t = t.locks
let hooks t = t.hooks
let stats t = t.stats
let callback_registry t = t.cb
let id t = t.id
let set_detection t d = t.detect <- d
let set_group_policy t p = Store.set_group_policy t.store p

(* Always [true]: lock waits are handed off in place on release. Kept
   for callers that assert the discipline they measure (the repo
   benchmark does). *)
let lock_handoff _ = true

(* ---- Clients ---- *)

let connect_client t ~client ~sink =
  if not (Hashtbl.mem t.sinks client) then
    Bess_util.Stats.incr t.stats "server.client_connects";
  Hashtbl.replace t.sinks client sink

let disconnect_client t ~client =
  if Hashtbl.mem t.sinks client then
    Bess_util.Stats.incr t.stats "server.client_disconnects";
  Hashtbl.remove t.sinks client;
  Callback.forget_client t.cb ~client

(* ---- Transactions ---- *)

let begin_txn t ~client =
  in_request "begin" @@ fun () ->
  let txn_id = t.next_txn in
  t.next_txn <- txn_id + 1;
  Hashtbl.replace t.txns txn_id { txn_id; client; last_lsn = 0; status = Active; coord = -1 };
  Event.fire t.hooks (Txn_begin { txn = txn_id });
  txn_id

let txn t txn_id =
  match Hashtbl.find_opt t.txns txn_id with
  | Some ts -> ts
  | None -> invalid_arg (Printf.sprintf "Server: unknown transaction %d" txn_id)

(* ---- Locking with callbacks ---- *)

let lock t ~txn:txn_id r mode =
  in_request "lock" @@ fun () ->
  let ts = txn t txn_id in
  if ts.status <> Active then invalid_arg "Server.lock: transaction not active";
  match run_callbacks t ~requester:ts.client r mode with
  | `Blocked -> `Blocked
  | `Ok -> (
      match Lock_mgr.acquire ~detect:t.detect t.locks ~txn:txn_id r mode with
      | `Granted ->
          Event.fire t.hooks
            (Lock_acquired { txn = txn_id; resource = Fmt.str "%a" Lock_mgr.pp_resource r });
          `Granted
      | `Blocked -> `Blocked
      | `Deadlock ->
          Event.fire t.hooks (Deadlock { txn = txn_id });
          `Deadlock
      | `Timeout ->
          (* Suspected deadlock only — no Deadlock event; the client's
             retry loop treats this as retriable where a proven cycle
             aborts for good. *)
          Bess_util.Stats.incr t.stats "server.lock_timeouts";
          `Timeout)

(* Event-driven variant of {!lock}: on [`Blocked] the caller is
   subscribed (one-shot, keyed by transaction — a transaction waits on
   at most one request at a time) and [on_wake] fires when a release
   hands the lock over in place, instead of the caller having to
   re-poll. Any other verdict clears a stale subscription: a guard
   re-poll that succeeds must not leave its park's wake armed. The
   subscription also dies with the transaction (commit/abort) and with
   the lock table on crash. No wake ever fires for a [`Blocked] caused
   by cached-copy callbacks alone (nothing is queued in the lock table),
   so parked callers keep a timer as a fallback. *)
let lock_async t ~txn:txn_id r mode ~on_wake =
  match lock t ~txn:txn_id r mode with
  | `Blocked ->
      Hashtbl.replace t.wake_subs txn_id on_wake;
      `Blocked
  | v ->
      Hashtbl.remove t.wake_subs txn_id;
      v

(* ---- Page service ---- *)

let read_page t page = Store.read_page t.store page

(* Fetch a whole disk segment, S-locking each page for the transaction.
   Fails with [`Blocked]/[`Deadlock] if any page lock cannot be granted. *)
let fetch_segment t ~txn:txn_id (seg : Bess_storage.Seg_addr.t) ~mode =
  in_request "fetch_segment" @@ fun () ->
  let rec lock_pages i =
    if i >= seg.npages then `Ok
    else
      let r = Lock_mgr.page_resource ~area:seg.area ~page:(seg.first_page + i) in
      match lock t ~txn:txn_id r mode with
      | `Granted -> lock_pages (i + 1)
      | (`Blocked | `Deadlock | `Timeout) as v -> v
  in
  match lock_pages 0 with
  | `Ok ->
      Bess_util.Stats.incr t.stats "server.segment_fetches";
      `Pages (Store.read_segment t.store seg)
  | (`Blocked | `Deadlock | `Timeout) as v -> v

(* ---- Client-cached commit path ---- *)

let release_locks_keep_cached t ts =
  (* The ending transaction can no longer be waiting; drop its wake
     subscription before the release below fires wakes for others. *)
  Hashtbl.remove t.wake_subs ts.txn_id;
  (* Strict 2PL release; the client keeps its cached copies, so the
     callback registry retains them (X downgrades to S: the client's copy
     stays valid for reading until called back). *)
  List.iter
    (fun r ->
      match Callback.cached_mode t.cb ~client:ts.client r with
      | Some m when not (Lock_mode.compatible m Lock_mode.S) ->
          Callback.downgraded t.cb ~client:ts.client r Lock_mode.S
      | _ -> ())
    (Lock_mgr.held_resources t.locks ~txn:ts.txn_id);
  ignore (Lock_mgr.release_all t.locks ~txn:ts.txn_id)

(* Log the commit and release server state, but defer the durability
   wait: the returned ticket is awaited before the client is
   acknowledged, letting concurrent committers share one coalesced
   force. Early lock release is safe under prefix durability: any
   transaction that observes this one's writes commits at a higher LSN,
   so a crash that loses this commit record loses the dependent one
   too. *)
let commit_client_begin t ~txn:txn_id ~(updates : update list) =
  in_request "commit" @@ fun () ->
  let ts = txn t txn_id in
  if ts.status <> Active then invalid_arg "Server.commit_client: transaction not active";
  (* Verify the client actually holds X locks covering its updates --
     the server is the trust boundary. *)
  let covered =
    List.for_all
      (fun u ->
        Lock_mgr.holds t.locks ~txn:txn_id
          (Lock_mgr.page_resource ~area:u.page.area ~page:u.page.page)
          Lock_mode.X)
      updates
  in
  if not covered then `Lock_violation
  else begin
    (* An injected storage fault while applying leaves the transaction
       Active with [last_lsn] pointing at the logged prefix: the client's
       abort rolls it back physically before the locks drop. *)
    List.iter
      (fun u ->
        ts.last_lsn <-
          Store.apply_update t.store ~txn:txn_id ~prev_lsn:ts.last_lsn u.page ~offset:u.offset
            ~before:u.before ~after:u.after)
      updates;
    match Store.log_commit_begin t.store ~txn:txn_id ~prev_lsn:ts.last_lsn with
    | exception e ->
        (* The COMMIT record is appended before the force that failed, so
           the commit point is already passed — only durability is
           unconfirmed. Complete the server-side transition anyway (locks
           must never outlive the attempt) and let the caller hear the
           failure as an indeterminate outcome. *)
        ts.status <- Ended;
        release_locks_keep_cached t ts;
        Hashtbl.remove t.txns txn_id;
        Event.fire t.hooks (Txn_commit { txn = txn_id });
        Bess_util.Stats.incr t.stats "server.commits";
        raise e
    | _lsn, ticket ->
        ts.status <- Ended;
        release_locks_keep_cached t ts;
        Hashtbl.remove t.txns txn_id;
        Event.fire t.hooks (Txn_commit { txn = txn_id });
        Bess_util.Stats.incr t.stats "server.commits";
        `Committed ticket
  end

let await_commit t ticket = Store.await_commit t.store ticket

let commit_client t ~txn ~(updates : update list) =
  match commit_client_begin t ~txn ~updates with
  | `Lock_violation -> `Lock_violation
  | `Committed ticket ->
      await_commit t ticket;
      `Committed

let abort_client t ~txn:txn_id =
  in_request "abort" @@ fun () ->
  match Hashtbl.find_opt t.txns txn_id with
  | None ->
      (* Idempotent: a retried abort, or one racing a commit attempt that
         already ended the transaction (an indeterminate failure the
         client resolved pessimistically), finds nothing to do — the
         locks are gone either way. *)
      Bess_util.Stats.incr t.stats "server.abort_noops"
  | Some ts ->
      if ts.status <> Active then invalid_arg "Server.abort_client: transaction not active";
      (* Normally nothing was applied server-side before commit, so abort
         only releases locks and the client discards its dirty copies. A
         commit attempt interrupted mid-apply (injected storage fault)
         leaves logged updates behind; those must be physically undone
         BEFORE the locks drop, or a later writer's committed value could
         be clobbered when recovery undoes this loser. *)
      if ts.last_lsn <> 0 then ignore (Store.rollback t.store ~txn:txn_id ~last_lsn:ts.last_lsn);
      ts.status <- Ended;
      release_locks_keep_cached t ts;
      Hashtbl.remove t.txns txn_id;
      Event.fire t.hooks (Txn_abort { txn = txn_id });
      Bess_util.Stats.incr t.stats "server.aborts"

(* ---- In-place (open server) path ---- *)

let update_inplace t ~txn:txn_id page ~offset after =
  let ts = txn t txn_id in
  if ts.status <> Active then invalid_arg "Server.update_inplace: transaction not active";
  let r = Lock_mgr.page_resource ~area:page.Page_id.area ~page:page.Page_id.page in
  (match lock t ~txn:txn_id r Lock_mode.X with
  | `Granted -> ()
  | `Blocked -> failwith "Server.update_inplace: lock not available"
  | `Deadlock | `Timeout -> failwith "Server.update_inplace: deadlock");
  let current = Store.read_page t.store page in
  let before = Bytes.sub current offset (Bytes.length after) in
  ts.last_lsn <-
    Store.apply_update t.store ~txn:txn_id ~prev_lsn:ts.last_lsn page ~offset ~before ~after

let read_inplace t ~txn:txn_id page ~offset ~len =
  let ts = txn t txn_id in
  if ts.status <> Active then invalid_arg "Server.read_inplace: transaction not active";
  let r = Lock_mgr.page_resource ~area:page.Page_id.area ~page:page.Page_id.page in
  (match lock t ~txn:txn_id r Lock_mode.S with
  | `Granted -> ()
  | `Blocked | `Deadlock | `Timeout -> failwith "Server.read_inplace: lock not available");
  let current = Store.read_page t.store page in
  Bytes.sub current offset len

let commit_inplace t ~txn:txn_id =
  let ts = txn t txn_id in
  ignore (Store.log_commit t.store ~txn:txn_id ~prev_lsn:ts.last_lsn);
  ts.status <- Ended;
  release_locks_keep_cached t ts;
  Hashtbl.remove t.txns txn_id;
  Event.fire t.hooks (Txn_commit { txn = txn_id });
  Bess_util.Stats.incr t.stats "server.commits"

let abort_inplace t ~txn:txn_id =
  let ts = txn t txn_id in
  ignore (Store.rollback t.store ~txn:txn_id ~last_lsn:ts.last_lsn);
  ts.status <- Ended;
  release_locks_keep_cached t ts;
  Hashtbl.remove t.txns txn_id;
  Event.fire t.hooks (Txn_abort { txn = txn_id });
  Bess_util.Stats.incr t.stats "server.aborts"

(* ---- Two-phase commit (participant side) ---- *)

(* Phase 1: make the transaction durable-but-undecided. For client-cached
   transactions the updates arrive with the prepare.

   A no vote is a unilateral abort: the participant rolls back anything it
   logged and releases its locks immediately, because presumed abort means
   the coordinator will never send it a decision (it learns the global
   abort from the vote itself and logs nothing). Leaving the transaction
   active would leak its locks forever.

   Idempotency, since duplicate delivery is legal on the wire: a retried
   prepare that finds the transaction already Prepared re-votes yes; one
   that finds no transaction at all (the first copy voted no and aborted,
   or the participant crashed and lost it) votes no. *)
let prepare t ~txn:txn_id ~coordinator ~(updates : update list) =
  in_request "prepare" @@ fun () ->
  match Hashtbl.find_opt t.txns txn_id with
  | None ->
      Bess_util.Stats.incr t.stats "server.prepare_noops";
      `Vote_no
  | Some ts when ts.status = Prepared -> `Vote_yes
  | Some ts ->
      if ts.status <> Active then invalid_arg "Server.prepare: transaction not active";
      let covered =
        List.for_all
          (fun u ->
            Lock_mgr.holds t.locks ~txn:txn_id
              (Lock_mgr.page_resource ~area:u.page.area ~page:u.page.page)
              Lock_mode.X)
          updates
      in
      if not covered then begin
        if ts.last_lsn <> 0 then
          ignore (Store.rollback t.store ~txn:txn_id ~last_lsn:ts.last_lsn);
        ts.status <- Ended;
        release_locks_keep_cached t ts;
        Hashtbl.remove t.txns txn_id;
        Event.fire t.hooks (Txn_abort { txn = txn_id });
        Bess_util.Stats.incr t.stats "server.aborts";
        Bess_util.Stats.incr t.stats "server.vote_no";
        `Vote_no
      end
      else begin
        List.iter
          (fun u ->
            ts.last_lsn <-
              Store.apply_update t.store ~txn:txn_id ~prev_lsn:ts.last_lsn u.page
                ~offset:u.offset ~before:u.before ~after:u.after)
          updates;
        ts.last_lsn <- Store.log_prepare t.store ~txn:txn_id ~prev_lsn:ts.last_lsn ~coordinator;
        ts.status <- Prepared;
        t.n_prepared <- t.n_prepared + 1;
        ts.coord <- coordinator;
        Bess_util.Stats.incr t.stats "server.prepares";
        `Vote_yes
      end

(* Phase 2 decisions. Both are no-ops on an unknown or already-decided
   transaction: the coordinator re-drives decisions after its crash and
   the network may duplicate them, so the second delivery must find
   nothing left to do and still acknowledge. *)
let commit_prepared t ~txn:txn_id =
  in_request "decide" @@ fun () ->
  match Hashtbl.find_opt t.txns txn_id with
  | Some ts when ts.status = Prepared ->
      ignore (Store.log_commit t.store ~txn:txn_id ~prev_lsn:ts.last_lsn);
      ts.status <- Ended;
      t.n_prepared <- t.n_prepared - 1;
      release_locks_keep_cached t ts;
      Hashtbl.remove t.txns txn_id;
      Bess_util.Stats.incr t.stats "server.commits"
  | Some _ | None -> Bess_util.Stats.incr t.stats "server.decide_noops"

let abort_prepared t ~txn:txn_id =
  in_request "decide" @@ fun () ->
  match Hashtbl.find_opt t.txns txn_id with
  | Some ts when ts.status = Prepared ->
      ignore (Store.rollback t.store ~txn:txn_id ~last_lsn:ts.last_lsn);
      ts.status <- Ended;
      t.n_prepared <- t.n_prepared - 1;
      release_locks_keep_cached t ts;
      Hashtbl.remove t.txns txn_id;
      Bess_util.Stats.incr t.stats "server.aborts"
  | Some _ | None -> Bess_util.Stats.incr t.stats "server.decide_noops"

(* Transactions re-created as in-doubt by recovery. *)
let adopt_in_doubt t ~txn:txn_id ~last_lsn ?(coordinator = -1) () =
  (* Replacing an entry that was already Prepared must not double-count. *)
  (match Hashtbl.find_opt t.txns txn_id with
  | Some ts when ts.status = Prepared -> ()
  | _ -> t.n_prepared <- t.n_prepared + 1);
  Hashtbl.replace t.txns txn_id
    { txn_id; client = -1; last_lsn; status = Prepared; coord = coordinator }

(* Prepared transactions with the coordinator each is waiting on — what a
   shard hands to its resolver after restart. *)
let prepared_txns t =
  Hashtbl.fold
    (fun id ts acc -> if ts.status = Prepared then (id, ts.coord) :: acc else acc)
    t.txns []
  |> List.sort compare

(* Abort every active transaction of a client (used when a node server
   reconnects after a crash and its old transactions are orphans). *)
let abort_client_txns t ~client =
  let orphans =
    Hashtbl.fold
      (fun id ts acc -> if ts.client = client && ts.status = Active then id :: acc else acc)
      t.txns []
  in
  List.iter (fun id -> abort_client t ~txn:id) orphans;
  List.length orphans

(* ---- Maintenance ---- *)

let checkpoint t =
  let active =
    Hashtbl.fold
      (fun _ ts acc -> if ts.status = Active then (ts.txn_id, ts.last_lsn) :: acc else acc)
      t.txns []
  in
  Store.checkpoint t.store ~active

let crash t =
  Store.crash t.store;
  (* All client connections, cached-copy registrations, lock state and
     parked wake subscriptions are volatile server state: gone. *)
  Hashtbl.reset t.txns;
  t.n_prepared <- 0;
  Hashtbl.reset t.sinks;
  Hashtbl.reset t.wake_subs;
  t.cb <- Callback.create ();
  t.locks <- Lock_mgr.create ();
  install_lock_hooks t

let recover t =
  let outcome = Store.recover t.store in
  (* In-doubt transactions come back as prepared, positioned at their last
     log record so a later coordinator abort can still roll them back.
     They also take their X locks back (strict 2PL holds across the
     restart): until the coordinator's verdict arrives, no other
     transaction may read or overwrite a prepared transaction's writes —
     releasing early would let a reader observe updates that presumed
     abort may yet roll back. The pages come from the transaction's own
     Update/Clr records; the fresh post-crash lock table grants them
     uncontended. *)
  let in_doubt = Hashtbl.create 8 in
  List.iter (fun tx -> Hashtbl.replace in_doubt tx (0, -1)) outcome.in_doubt;
  let relock = Hashtbl.create 8 in
  Bess_wal.Log.iter (Store.log t.store) (fun lsn r ->
      match Bess_wal.Log_record.txn_of r with
      | Some tx when Hashtbl.mem in_doubt tx ->
          let _, coord = Hashtbl.find in_doubt tx in
          let coord =
            match r.body with
            | Bess_wal.Log_record.Prepare p -> p.coordinator
            | _ -> coord
          in
          Hashtbl.replace in_doubt tx (lsn, coord);
          (match r.body with
          | Bess_wal.Log_record.Update { page; _ } | Bess_wal.Log_record.Clr { page; _ } ->
              Hashtbl.replace relock
                (tx, Lock_mgr.page_resource ~area:page.area ~page:page.page)
                ()
          | _ -> ())
      | _ -> ());
  Hashtbl.iter
    (fun txn_id (last_lsn, coordinator) ->
      adopt_in_doubt t ~txn:txn_id ~last_lsn ~coordinator ())
    in_doubt;
  Hashtbl.iter
    (fun (tx, r) () ->
      (match Lock_mgr.acquire t.locks ~txn:tx r Lock_mode.X with
      | `Granted -> Bess_util.Stats.incr t.stats "server.indoubt_relocks"
      | `Blocked | `Deadlock | `Timeout ->
          (* Two in-doubt transactions never overlap on a page (both held
             X before the crash), so this cannot happen. *)
          assert false))
    relock;
  outcome

let shutdown t = Store.flush_all t.store
