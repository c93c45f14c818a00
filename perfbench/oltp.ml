(* oltp_contended: a closed loop of clients, each transaction X-locking
   and updating one page of a Zipf-plus-hot-set working set, against one
   server in its default lock configuration (graph deadlock detection,
   wake-on-release handoff) with group commit. Lock, WAL/group commit and
   the scheduler do the work; the working set fits the server cache.

   The client is the minimal closed loop think -> lock -> work -> commit
   -> ack on the public scheduler heap. A blocked request parks on the
   [Server.lock_async] wake with a guard timer for timeout recovery, as
   the library's driver does; page and think draws reuse the driver's
   own helpers so they have the same shape as the E14 sweep. *)

open Common
module Span = Bess_obs.Span
module Prng = Bess_util.Prng
module Server = Bess.Server
module Sched = Bess_sched.Sched
module Driver = Bess_sched.Driver
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Page_id = Bess_cache.Page_id

type cfg = {
  clients : int;
  txns_per_client : int;
  n_pages : int;
  cache_slots : int;
  think_ns : int; (* mean, exponential *)
  work_ns : int; (* modeled work between lock grant and commit *)
  ack_delay_ns : int; (* commit registration to durability poll *)
  guard_ns : int; (* first guard timer of a parked request *)
  max_guards : int; (* guard firings before a blocked attempt gives up *)
}

let full =
  { clients = 200; txns_per_client = 25; n_pages = 2048; cache_slots = 4096;
    think_ns = 200_000; work_ns = 5_000; ack_delay_ns = 20_000; guard_ns = 800_000;
    max_guards = 12 }

let tiny = { full with clients = 24; txns_per_client = 8; n_pages = 64; cache_slots = 128 }

type env = {
  cfg : cfg;
  server : Server.t;
  sched : Sched.t;
  pages : Page_id.t array;
  shadow : Bytes.t array; (* last committed 8 bytes at offset 0, per page *)
  mutable unacked : int; (* commits registered but not yet acknowledged *)
}

(* Committed data pages in popularity order, allocated through a
   loader session (the database's first client) that is then dropped:
   its cache is discarded and the server forgets its cached copies, so
   clients never call it back. *)
let working_set db ~n_pages =
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
        { Page_id.area = d.Bess_storage.Seg_addr.area; page = d.Bess_storage.Seg_addr.first_page + i }
        :: !pages
    done;
    remaining := !remaining - n
  done;
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  Server.disconnect_client (Bess.Db.server db) ~client:1;
  Array.of_list (List.rev !pages)

let setup cfg =
  let db = Bess.Db.create_memory ~cache_slots:cfg.cache_slots ~db_id:11 () in
  let server = Bess.Db.server db in
  Server.set_group_policy server (Bess_wal.Group_commit.Group_n 16);
  let pages = working_set db ~n_pages:cfg.n_pages in
  let sched = Sched.create () in
  let store = Server.store server in
  List.iter Counters.track
    [ Server.stats server; Lock_mgr.stats (Server.locks server);
      Bess_lock.Callback.stats (Server.callback_registry server); Bess.Store.stats store;
      Bess_wal.Log.stats (Bess.Store.log store); Bess_cache.Cache.stats (Bess.Store.cache store);
      Sched.stats sched ];
  { cfg; server; sched; pages; shadow = Array.map (fun _ -> Bytes.make 8 '\000') pages;
    unacked = 0 }

type client = {
  id : int;
  prng : Prng.t;
  jitter : Prng.t; (* guard timing only, so it never shifts workload draws *)
  mutable left : int;
  mutable park : int; (* generation token: stale wakes and guards no-op *)
  mutable backoff : int;
}

(* One attempt in flight: its simulated due time, server transaction,
   page, real-clock root span and the simulated-clock spans Critpath
   decomposes (root, parked backoff, durability-ticket wait). *)
type attempt = {
  due : int;
  txn : int;
  page : int;
  root : int * int;
  span : Span.handle;
  mutable backoff_span : Span.handle;
  mutable lag : int;
}

let measure env ~seed =
  let cfg = env.cfg and server = env.server and sched = env.sched in
  let t = tally () in
  let t0 = Span.now_ns () in
  let last = ref t0 in
  let pick =
    Driver.make_picker ~zipf_theta:0.8 ~hot_fraction:0.05 ~hot_pages:8 ~n:cfg.n_pages
  in
  let master = Prng.create seed in
  let clients =
    Array.init cfg.clients (fun i ->
        let prng = Prng.split master in
        { id = 10_000 + i; prng; jitter = Prng.split prng; left = cfg.txns_per_client;
          park = 0; backoff = 0 })
  in
  let sink _ _ = `Dropped in
  (* Decorrelated jitter between guard_ns and 8x guard_ns. *)
  let next_guard c ~retries =
    if retries = 0 then c.backoff <- 0;
    let prev = Stdlib.max cfg.guard_ns c.backoff in
    let d =
      Stdlib.min (8 * cfg.guard_ns)
        (cfg.guard_ns + Prng.int c.jitter (Stdlib.max 1 ((prev * 3) - cfg.guard_ns)))
    in
    c.backoff <- d;
    d
  in
  (* Entering an event of attempt [a]: bill its scheduler lag, and make it
     the ambient attempt of both span planes. *)
  let resume a =
    last := Span.now_ns ();
    a.lag <- a.lag + Sched.current_lag_ns sched;
    Tracer.enter a.root ~txn:a.txn
  in
  let rec start c =
    last := Span.now_ns ();
    let due = Span.now_ns () - Sched.current_lag_ns sched in
    let span =
      if Span.enabled () then
        Span.start ~root:true ~attrs:[ ("client", string_of_int c.id) ] ~kind:"sched.txn" ()
      else Span.none
    in
    let root = Tracer.open_attempt () in
    Tracer.enter root ~txn:0;
    t.attempts <- t.attempts + 1;
    Span.with_handle span (fun () ->
        let txn = Server.begin_txn server ~client:c.id in
        Span.annotate_handle span "txn" (string_of_int txn);
        let a =
          { due; txn; page = pick c.prng; root; span; backoff_span = Span.none;
            lag = Sched.current_lag_ns sched }
        in
        lock c a ~retries:0)
  and lock c a ~retries =
    Tracer.enter a.root ~txn:a.txn;
    let pid = env.pages.(a.page) in
    let r = Lock_mgr.page_resource ~area:pid.Page_id.area ~page:pid.Page_id.page in
    c.park <- c.park + 1;
    let park = c.park in
    let wake ~retries () =
      resume a;
      Span.finish a.backoff_span;
      a.backoff_span <- Span.none;
      Span.with_handle a.span (fun () -> lock c a ~retries)
    in
    let on_wake () =
      if c.park = park then begin
        c.park <- c.park + 1;
        Sched.schedule sched ~after:0 (wake ~retries)
      end
    in
    let w0 = Tracer.start () in
    let verdict = Server.lock_async server ~txn:a.txn r Lock_mode.X ~on_wake in
    Tracer.stop t_lock_acquire w0;
    match verdict with
    | `Granted ->
        Sched.schedule sched ~after:cfg.work_ns (fun () ->
            resume a;
            Span.with_handle a.span (fun () -> commit c a))
    | `Blocked when retries >= cfg.max_guards ->
        Server.abort_client server ~txn:a.txn;
        finish c a ~outcome:"give_up"
    | `Blocked ->
        a.backoff_span <-
          Span.start ~attrs:[ ("retries", string_of_int retries) ] ~kind:"client.backoff" ();
        Sched.schedule sched ~after:(next_guard c ~retries) (fun () ->
            if c.park = park then wake ~retries:(retries + 1) ())
    | (`Deadlock | `Timeout) as v ->
        Server.abort_client server ~txn:a.txn;
        finish c a ~outcome:(if v = `Deadlock then "deadlock" else "lock_timeout")
  and commit c a =
    let pid = env.pages.(a.page) in
    match
      let w0 = Tracer.start () in
      let bytes = Server.read_page server pid in
      Tracer.stop t_cache_read_page w0;
      let before = Bytes.sub bytes 0 8 in
      if not (Bytes.equal before env.shadow.(a.page)) then t.mismatches <- t.mismatches + 1;
      let after = Prng.bytes c.prng 8 in
      let w0 = Tracer.start () in
      let r =
        Server.commit_client_begin server ~txn:a.txn
          ~updates:[ { Server.page = pid; offset = 0; before; after } ]
      in
      Tracer.stop t_wal_commit_begin w0;
      (r, after)
    with
    | exception e ->
        (try Server.abort_client server ~txn:a.txn with _ -> ());
        finish c a ~outcome:(exn_name e)
    | `Lock_violation, _ ->
        Server.abort_client server ~txn:a.txn;
        finish c a ~outcome:"lock_violation"
    | `Committed ticket, after ->
        env.shadow.(a.page) <- after;
        env.unacked <- env.unacked + 1;
        let ticket_span = Span.start ~kind:"wal.ticket_wait" () in
        Sched.schedule sched ~after:cfg.ack_delay_ns (fun () ->
            resume a;
            Span.with_handle a.span (fun () ->
                let w0 = Tracer.start () in
                Server.await_commit server ticket;
                Tracer.stop t_wal_await w0;
                env.unacked <- env.unacked - 1;
                Span.finish ticket_span;
                committed t ~latency_ns:(Span.now_ns () - a.due);
                finish c a ~outcome:"commit"))
  and finish c a ~outcome =
    if outcome <> "commit" then failed t outcome;
    Span.finish a.backoff_span;
    Span.finish
      ~attrs:[ ("outcome", outcome); ("sched_lag_ns", string_of_int a.lag) ]
      a.span;
    Tracer.close_attempt a.root ~txn:a.txn;
    c.left <- c.left - 1;
    if c.left > 0 then
      Sched.schedule sched ~after:(Driver.exp_think ~mean_ns:cfg.think_ns c.prng) (fun () ->
          start c)
  in
  Array.iter
    (fun c ->
      Server.connect_client server ~client:c.id ~sink;
      Sched.schedule sched ~after:(Driver.exp_think ~mean_ns:cfg.think_ns c.prng) (fun () ->
          start c))
    clients;
  ignore (Sched.run sched);
  (t, !last - t0)

(* After the run: no lock may be left, every commit must have been
   acknowledged, and after a crash and ARIES restart every page must
   read back the last acknowledged write. [inject] corrupts one shadow
   entry first, to prove the checker catches a wrong value. *)
let verify env ~inject =
  let locks = Lock_mgr.n_locks (Server.locks env.server) in
  if inject then Bytes.set env.shadow.(0) 0 (Char.chr (Char.code (Bytes.get env.shadow.(0) 0) lxor 1));
  Server.crash env.server;
  ignore (Server.recover env.server);
  let bad = ref 0 in
  let digest = Buffer.create (8 * Array.length env.pages) in
  Array.iteri
    (fun i pid ->
      let got = Bytes.sub (Server.read_page env.server pid) 0 8 in
      Buffer.add_bytes digest got;
      if not (Bytes.equal got env.shadow.(i)) then incr bad)
    env.pages;
  ( [ ("lock_table_empty", locks = 0, Printf.sprintf "%d locks held after the run" locks);
      ("all_commits_acked", env.unacked = 0, Printf.sprintf "%d unacknowledged" env.unacked);
      ("acked_writes_survive_recovery", !bad = 0,
       Printf.sprintf "%d of %d pages differ from the acked shadow" !bad (Array.length env.pages)) ],
    Buffer.contents digest )
