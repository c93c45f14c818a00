(* The lock table: strict two-phase locking with FIFO wait queues.

   The simulation is cooperative, so [acquire] never blocks a thread --
   it returns [`Granted] or [`Blocked], and a later release hands the
   lock to the blocked client in place (see below). Deadlocks are
   detected two ways, both from the paper's world: timeouts (what BeSS
   uses for the distributed case) via a logical clock, and an exact
   waits-for-graph cycle check (what a local lock manager can afford).
   Experiments can choose either.

   Resources are small integer triples so page, file and object locks all
   fit one table: [space] names the namespace (see {!resource}).

   Hot-path complexity matters here: with 10^4..10^6 simulated clients the
   old list-based representation (append-at-tail enqueue, whole-table scan
   in [release_all] to purge ghost waiters) turned every release into O(table)
   and hot-key convoys into O(waiters^2). Waiters now live in a per-entry
   FIFO [Queue.t] of records with a cancelled flag (O(1) enqueue, O(1)
   lazy cancel, amortised compaction), each entry indexes its live waiters
   by transaction, and each transaction tracks the exact set of resources
   it is queued on — so [release_all] touches only the entries the
   transaction actually holds or waits on. The counter
   [lock.release_scan_entries] records how many entries each release
   visited; the regression test asserts it stays linear in the number of
   transactions.

   Grant handoff (wake-on-release): [release_all] grants the maximal
   compatible FIFO prefix of each affected queue *in place*, transferring
   the lock before any new acquirer can barge, and fires the registered
   wake hook once per granted transaction. Blocked callers park on that
   wake instead of poll-retrying, so a hot resource pays zero dead time
   between a release and the successor's grant ([lock.handoffs] counts
   the transfers, [lock.wake_to_grant_ticks] the dead time — identically
   zero for handoff grants). The optional grant
   filter lets the server veto an in-place grant that still conflicts
   with other clients' *cached* copies (callback locking): a vetoed
   waiter keeps its queue position and is woken for its own re-poll, so
   FIFO order survives the veto.

   Timeout discovery is event-driven too: waiters join a global expiry
   FIFO at enqueue (the logical clock is monotonic and the timeout a
   table constant, so enqueue order *is* deadline order), and each
   clock advance drains the expired front, waking those transactions so
   their re-poll observes [`Timeout] immediately. Without this, a
   waiter doomed to time out would sleep until its guard timer fired —
   under deep hot-key convoys that dead time, multiplied by thousands
   of waiters, was most of the measured lock blame. *)

module Span = Bess_obs.Span

type resource = { space : int; a : int; b : int }

let page_resource ~area ~page = { space = 0; a = area; b = page }
let object_resource ~db ~slot = { space = 1; a = db; b = slot }
let file_resource ~db ~file = { space = 2; a = db; b = file }

let pp_resource ppf r =
  let name = match r.space with 0 -> "page" | 1 -> "obj" | 2 -> "file" | _ -> "res" in
  Fmt.pf ppf "%s(%d,%d)" name r.a r.b

type waiter = {
  w_txn : int;
  w_mode : Lock_mode.t;
  w_enqueued : int; (* logical tick at enqueue *)
  mutable w_cancelled : bool; (* granted, purged or aborted; skipped on iteration *)
  mutable w_woken : int; (* tick of the most recent release that woke it; -1 if never *)
}

type entry = {
  mutable granted : (int * Lock_mode.t) list; (* txn, cumulative mode *)
  waiting : waiter Queue.t; (* FIFO order; may hold cancelled nodes *)
  by_txn : (int, waiter) Hashtbl.t; (* live waiters only *)
  mutable n_live : int;
}

type t = {
  table : (resource, entry) Hashtbl.t;
  held : (int, (resource, unit) Hashtbl.t) Hashtbl.t; (* txn -> granted resources *)
  waits : (int, (resource, unit) Hashtbl.t) Hashtbl.t; (* txn -> resources it queues on *)
  mutable tick : int;
  timeout : int; (* ticks a request may wait before being declared deadlocked *)
  stats : Bess_util.Stats.t;
  mutable n_waiters : int; (* live waiters across all entries, kept incrementally *)
  mutable wake_hook : (txn:int -> unit) option;
  mutable grant_filter : (txn:int -> resource -> Lock_mode.t -> bool) option;
  (* Every waiter, in enqueue (= deadline) order; cancelled nodes are
     discarded as the front drains. Backs the event-driven timeout
     wake-up: see [check_expiry]. *)
  expiry : waiter Queue.t;
  (* A wait crosses acquire calls (enqueue in one, grant or purge in
     another), so its span cannot live on the stack: it is opened as a
     root span at enqueue and parked here until the wait resolves. *)
  wait_spans : (int * resource, Span.handle) Hashtbl.t;
}

let create ?(timeout = 1000) () =
  let stats = Bess_util.Stats.create () in
  (* Eager: the wait and wake-to-grant distributions are part of every
     report even when no request ever blocked. *)
  ignore (Bess_util.Stats.histogram stats "lock.wait_ticks");
  ignore (Bess_util.Stats.histogram stats "lock.wake_to_grant_ticks");
  Bess_obs.Registry.register_stats "lock" stats;
  let t =
    { table = Hashtbl.create 256; held = Hashtbl.create 32; waits = Hashtbl.create 32;
      tick = 0; timeout; stats; n_waiters = 0; wake_hook = None;
      grant_filter = None; expiry = Queue.create (); wait_spans = Hashtbl.create 16 }
  in
  Bess_obs.Registry.register_gauge "lock" "lock.table_size" (fun () ->
      Hashtbl.length t.table);
  (* Incremental: folding the whole table here made every Series window
     O(table). *)
  Bess_obs.Registry.register_gauge "lock" "lock.waiters" (fun () -> t.n_waiters);
  t

let stats t = t.stats

(* Wake waiters whose deadline has passed. The expiry queue is in
   deadline order, so this pops an expired or cancelled front and stops
   at the first live waiter still inside its budget: O(1) amortised per
   enqueue. The wake hook only schedules the parked client's re-poll
   (which then observes [`Timeout]); under [`Graph] detection the wake
   is spurious but harmless. *)
let check_expiry t =
  let continue_ = ref true in
  while !continue_ do
    match Queue.peek_opt t.expiry with
    | Some w when w.w_cancelled -> ignore (Queue.pop t.expiry)
    | Some w when t.tick - w.w_enqueued > t.timeout ->
        ignore (Queue.pop t.expiry);
        w.w_woken <- t.tick;
        Bess_util.Stats.incr t.stats "lock.expiry_wakes";
        (match t.wake_hook with None -> () | Some f -> f ~txn:w.w_txn)
    | _ -> continue_ := false
  done

let tick t =
  t.tick <- t.tick + 1;
  check_expiry t

let now t = t.tick
let n_waiters t = t.n_waiters
let set_wake_hook t f = t.wake_hook <- f
let set_grant_filter t f = t.grant_filter <- f

let entry t r =
  match Hashtbl.find_opt t.table r with
  | Some e -> e
  | None ->
      let e = { granted = []; waiting = Queue.create (); by_txn = Hashtbl.create 4; n_live = 0 } in
      Hashtbl.add t.table r e;
      e

let entry_empty e = e.granted = [] && e.n_live = 0

(* Live waiters in FIFO order. *)
let iter_live e f = Queue.iter (fun w -> if not w.w_cancelled then f w) e.waiting

(* Cancelled nodes stay queued until this amortised rebuild; triggering
   on 2x live keeps total compaction work linear in enqueues. *)
let maybe_compact e =
  if Queue.length e.waiting > (2 * e.n_live) + 8 then begin
    let live = Queue.create () in
    Queue.iter (fun w -> if not w.w_cancelled then Queue.push w live) e.waiting;
    Queue.clear e.waiting;
    Queue.transfer live e.waiting
  end

let held_mode t ~txn r =
  match Hashtbl.find_opt t.table r with
  | None -> None
  | Some e -> List.assoc_opt txn e.granted

let holds t ~txn r mode =
  match held_mode t ~txn r with Some m -> Lock_mode.covers m mode | None -> false

let txn_set tbl txn =
  match Hashtbl.find_opt tbl txn with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.add tbl txn s;
      s

let record_held t ~txn r = Hashtbl.replace (txn_set t.held txn) r ()

(* Would granting [mode] to [txn] conflict with other granted locks? *)
let conflicts e ~txn mode =
  List.exists (fun (t', m') -> t' <> txn && not (Lock_mode.compatible mode m')) e.granted

(* A request may jump the queue only if it is a lock *upgrade* (the txn
   already holds the resource); fresh requests respect FIFO order so
   writers are not starved. *)
let blocked_by_queue e ~txn =
  e.n_live > if Hashtbl.mem e.by_txn txn then 1 else 0

(* ---- Waits-for graph ----------------------------------------------------- *)

(* Edges: each waiter waits for every granted holder it conflicts with and
   for earlier incompatible waiters. Exact cycle detection by DFS. This
   scans the whole table — affordable for the exact local detector; use
   [`Timeout] detection at simulated-fleet scale. *)
let waits_for t =
  let edges = Hashtbl.create 32 in
  let add_edge a b = if a <> b then Hashtbl.add edges a b in
  Hashtbl.iter
    (fun _ e ->
      iter_live e (fun w ->
          List.iter
            (fun (g, gm) -> if not (Lock_mode.compatible w.w_mode gm) then add_edge w.w_txn g)
            e.granted;
          (* earlier waiters that conflict also precede us *)
          (try
             iter_live e (fun w' ->
                 if w' == w then raise Exit
                 else if not (Lock_mode.compatible w.w_mode w'.w_mode) then
                   add_edge w.w_txn w'.w_txn)
           with Exit -> ())))
    t.table;
  edges

let creates_cycle t ~txn =
  let edges = waits_for t in
  (* DFS from txn looking for a path back to txn. *)
  let visited = Hashtbl.create 16 in
  let rec dfs v =
    if Hashtbl.mem visited v then false
    else begin
      Hashtbl.add visited v ();
      let succs = Hashtbl.find_all edges v in
      List.exists (fun s -> s = txn || dfs s) succs
    end
  in
  let succs = Hashtbl.find_all edges txn in
  List.exists (fun s -> s = txn || dfs s) succs

(* ---- Acquire / release --------------------------------------------------- *)

(* [`Deadlock] is a proven cycle: someone must abort, retrying is
   futile. [`Timeout] is only *suspicion* of one (the distributed
   detector cannot prove a cycle) — the victim may safely retry once
   the ambient load drains, so callers get to tell them apart. *)
type verdict = [ `Granted | `Blocked | `Deadlock | `Timeout ]

let remove_waiter t e ~txn r =
  match Hashtbl.find_opt e.by_txn txn with
  | None -> ()
  | Some w ->
      w.w_cancelled <- true;
      Hashtbl.remove e.by_txn txn;
      e.n_live <- e.n_live - 1;
      t.n_waiters <- t.n_waiters - 1;
      (match Hashtbl.find_opt t.waits txn with
      | Some s ->
          Hashtbl.remove s r;
          if Hashtbl.length s = 0 then Hashtbl.remove t.waits txn
      | None -> ());
      maybe_compact e

let enqueue_waiter t e ~txn r mode =
  let w =
    { w_txn = txn; w_mode = mode; w_enqueued = t.tick; w_cancelled = false; w_woken = -1 }
  in
  Queue.push w e.waiting;
  Queue.push w t.expiry;
  Hashtbl.replace e.by_txn txn w;
  e.n_live <- e.n_live + 1;
  t.n_waiters <- t.n_waiters + 1;
  Hashtbl.replace (txn_set t.waits txn) r ()

(* A request that waited is about to be granted: record how long it sat
   in the queue, and — if it was woken — the dead time between that wake
   and the grant, in logical ticks. Handoff grants set [w_woken] to the
   current tick first, so their dead time is identically zero; a waiter
   woken by a veto or an expiry pays the gap until its own re-poll. *)
let observe_wait t e ~txn =
  match Hashtbl.find_opt e.by_txn txn with
  | Some w ->
      Bess_util.Stats.observe t.stats "lock.wait_ticks" (t.tick - w.w_enqueued);
      if w.w_woken >= 0 then
        Bess_util.Stats.observe t.stats "lock.wake_to_grant_ticks" (t.tick - w.w_woken)
  | None -> ()

(* Open the parked wait span for a newly enqueued request. Root span:
   the wait resolves in a different call (possibly a different client's),
   so it cannot nest under whatever span is ambient right now. *)
let begin_wait t ~txn r ~mode =
  if Span.enabled () && not (Hashtbl.mem t.wait_spans (txn, r)) then
    Hashtbl.replace t.wait_spans (txn, r)
      (Span.start ~root:true
         ~attrs:
           [ ("txn", string_of_int txn); ("resource", Fmt.str "%a" pp_resource r);
             ("mode", Lock_mode.to_string mode) ]
         ~kind:"lock.wait" ())

let end_wait t ~txn r ~outcome =
  match Hashtbl.find_opt t.wait_spans (txn, r) with
  | None -> ()
  | Some h ->
      Hashtbl.remove t.wait_spans (txn, r);
      Span.finish ~attrs:[ ("outcome", outcome) ] h

let acquire ?(detect = `Graph) t ~txn r mode : verdict =
  t.tick <- t.tick + 1;
  check_expiry t;
  let e = entry t r in
  let current = List.assoc_opt txn e.granted in
  let want = match current with Some m -> Lock_mode.sup m mode | None -> mode in
  let attrs () =
    if Span.enabled () then
      [ ("txn", string_of_int txn); ("resource", Fmt.str "%a" pp_resource r);
        ("mode", Lock_mode.to_string mode) ]
    else []
  in
  Span.with_span ~attrs:(attrs ()) ~kind:"lock.acquire" (fun () ->
      match current with
      | Some m when Lock_mode.covers m mode ->
          Bess_util.Stats.incr t.stats "lock.regrants";
          observe_wait t e ~txn;
          remove_waiter t e ~txn r;
          end_wait t ~txn r ~outcome:"granted";
          `Granted
      | _ ->
          let is_upgrade = current <> None in
          if (not (conflicts e ~txn want)) && (is_upgrade || not (blocked_by_queue e ~txn))
          then begin
            e.granted <- (txn, want) :: List.remove_assoc txn e.granted;
            observe_wait t e ~txn;
            remove_waiter t e ~txn r;
            end_wait t ~txn r ~outcome:"granted";
            record_held t ~txn r;
            Bess_util.Stats.incr t.stats "lock.grants";
            `Granted
          end
          else begin
            if not (Hashtbl.mem e.by_txn txn) then begin
              enqueue_waiter t e ~txn r want;
              Bess_util.Stats.incr t.stats "lock.blocks";
              begin_wait t ~txn r ~mode:want
            end;
            match detect with
            | `Graph ->
                if creates_cycle t ~txn then begin
                  remove_waiter t e ~txn r;
                  end_wait t ~txn r ~outcome:"deadlock";
                  Bess_util.Stats.incr t.stats "lock.deadlocks";
                  if entry_empty e then Hashtbl.remove t.table r;
                  `Deadlock
                end
                else `Blocked
            | `Timeout ->
                let enqueue_tick =
                  match Hashtbl.find_opt e.by_txn txn with
                  | Some w -> w.w_enqueued
                  | None -> t.tick
                in
                if t.tick - enqueue_tick > t.timeout then begin
                  remove_waiter t e ~txn r;
                  end_wait t ~txn r ~outcome:"timeout";
                  Bess_util.Stats.incr t.stats "lock.timeouts";
                  if entry_empty e then Hashtbl.remove t.table r;
                  `Timeout
                end
                else `Blocked
          end)

(* Grant the maximal compatible FIFO prefix of [e]'s queue in place.
   Called after a release removed a holder (or purged a ghost waiter):
   the lock transfers to its successors *here*, before any new acquirer
   can observe it free, so nobody barges. The scan stops at the first
   live waiter that conflicts with the (updated) granted set — strict
   FIFO, so writers queued behind readers are not starved — or whose
   grant the filter vetoes (a cached-copy conflict the server must first
   call back; the waiter keeps its position and is woken so its own
   re-poll — which runs the full callback path — resolves the conflict
   without waiting for a guard timer).

   Cost is O(granted prefix), not O(queue): the scan peeks and pops from
   the head, discarding cancelled nodes as it goes, and stops at the
   first live waiter it cannot grant — a deep convoy behind an X waiter
   costs one peek per release, however many sleep behind it. The
   peek-then-recheck shape is because the filter may run client
   callbacks that touch this very entry (and a grant's own bookkeeping
   may trigger queue compaction, so the pop only lands if the head is
   physically still ours). *)
let grant_scan t e r =
  let granted_txns = ref [] in
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty e.waiting) do
    let w = Queue.peek e.waiting in
    if w.w_cancelled then ignore (Queue.pop e.waiting)
    else if conflicts e ~txn:w.w_txn w.w_mode then stop := true
    else begin
      let ok =
        match t.grant_filter with
        | None -> true
        | Some f -> f ~txn:w.w_txn r w.w_mode
      in
      (* The filter ran arbitrary code: re-check before transferring. *)
      if ok && (not w.w_cancelled) && not (conflicts e ~txn:w.w_txn w.w_mode) then begin
        let want =
          match List.assoc_opt w.w_txn e.granted with
          | Some m -> Lock_mode.sup m w.w_mode
          | None -> w.w_mode
        in
        w.w_woken <- t.tick;
        observe_wait t e ~txn:w.w_txn;
        e.granted <- (w.w_txn, want) :: List.remove_assoc w.w_txn e.granted;
        record_held t ~txn:w.w_txn r;
        remove_waiter t e ~txn:w.w_txn r;
        end_wait t ~txn:w.w_txn r ~outcome:"handoff";
        Bess_util.Stats.incr t.stats "lock.grants";
        Bess_util.Stats.incr t.stats "lock.handoffs";
        granted_txns := w.w_txn :: !granted_txns;
        match Queue.peek_opt e.waiting with
        | Some w' when w' == w -> ignore (Queue.pop e.waiting)
        | _ -> () (* compaction already rebuilt the queue without it *)
      end
      else begin
        (* Vetoed (or raced): the waiter keeps its queue position, but
           wake it now — its re-poll runs the full callback path at
           once instead of sleeping until a guard timer fires. *)
        if not w.w_cancelled then begin
          w.w_woken <- t.tick;
          Bess_util.Stats.incr t.stats "lock.veto_wakes";
          match t.wake_hook with None -> () | Some f -> f ~txn:w.w_txn
        end;
        stop := true
      end
    end
  done;
  let granted = List.rev !granted_txns in
  (match t.wake_hook with
  | None -> ()
  | Some f -> List.iter (fun txn -> f ~txn) granted);
  granted

(* Release everything held by [txn] (strict 2PL: only at commit/abort).
   Cost is O(resources the transaction holds or waits on), not
   O(lock table): the per-txn wait set replaces the old whole-table scan
   for ghost waiters (requests still queued on resources the transaction
   never got — those would block later requesters in FIFO order, and the
   transactions queued behind them must be woken or they stall forever,
   since no release on those resources is coming).

   Returns the transactions granted in place, in grant order (their
   wake hooks already fired). *)
let release_all t ~txn =
  let granted = ref [] in
  let scanned = ref 0 in
  let visit r =
    incr scanned;
    match Hashtbl.find_opt t.table r with
    | None -> ()
    | Some e ->
        e.granted <- List.remove_assoc txn e.granted;
        remove_waiter t e ~txn r;
        end_wait t ~txn r ~outcome:"released";
        granted := List.rev_append (grant_scan t e r) !granted;
        if entry_empty e then Hashtbl.remove t.table r
  in
  (match Hashtbl.find_opt t.held txn with
  | None -> ()
  | Some resources ->
      Hashtbl.iter (fun r () -> visit r) resources;
      Hashtbl.remove t.held txn);
  (match Hashtbl.find_opt t.waits txn with
  | None -> ()
  | Some resources ->
      (* Copy first: [visit] edits this set through [remove_waiter]. *)
      let rs = Hashtbl.fold (fun r () acc -> r :: acc) resources [] in
      List.iter visit rs);
  Bess_util.Stats.incr t.stats "lock.release_alls";
  Bess_util.Stats.add t.stats "lock.release_scan_entries" !scanned;
  List.rev !granted

(* Drop one resource early (used by callback processing, not by 2PL).
   Successors are handed the lock in place here too, so an early release
   under group commit moves the queue without waiting for the re-poll. *)
let release_one t ~txn r =
  (match Hashtbl.find_opt t.table r with
  | None -> ()
  | Some e ->
      e.granted <- List.remove_assoc txn e.granted;
      ignore (grant_scan t e r);
      if entry_empty e then Hashtbl.remove t.table r);
  match Hashtbl.find_opt t.held txn with
  | Some s ->
      Hashtbl.remove s r;
      if Hashtbl.length s = 0 then Hashtbl.remove t.held txn
  | None -> ()

let held_resources t ~txn =
  match Hashtbl.find_opt t.held txn with
  | Some s -> Hashtbl.fold (fun r () acc -> r :: acc) s []
  | None -> []

let n_locks t = Hashtbl.length t.table
