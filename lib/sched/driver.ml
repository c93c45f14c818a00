(* Closed-loop workload driver: clients as resumable state machines on
   the event heap.

   One client loop serves every workload: a client thinks, opens a
   sched.txn root, hands the attempt to a per-attempt *step*, and
   thinks again once the step reports an outcome. The loop owns the
   clients, the root span, the sched.* outcome counters and the
   blocked-retry guard; a step owns only what one attempt does. Every
   arrow is an event, so up to hundreds of thousands of clients
   interleave on one heap with no threads. The loop is *closed*: a
   client issues its next transaction only after the previous
   acknowledgement (or failure), so offered load backs off as latency
   grows, the way real attached clients behave.

   The single-server step ([run]) cycles begin -> lock -> work ->
   commit -> ack, with session churn. Commit uses the split
   acknowledgement path (commit_client_begin, then an await event
   ack_delay_ns later), so concurrent committers register durability
   tickets inside one group-commit window and the force scheduler can
   coalesce them. Blocked lock requests park on the lock manager's
   wake-on-release handoff ([Server.lock_async]) and hop back onto the
   heap only once the lock is theirs; the guard timer is kept per park
   purely for [`Timeout]/[`Deadlock] recovery and almost never fires.
   The shard ring's step lives next to [Shard.txn].

   Determinism: per-client splitmix64 streams split off the config seed
   in client order (a separate per-client jitter stream keeps guard
   timing from perturbing the workload draws), plus the heap's
   (tick, seq) total order. Nothing reads wall time. *)

module Span = Bess_obs.Span
module Stats = Bess_util.Stats
module Prng = Bess_util.Prng
module Lock_mgr = Bess_lock.Lock_mgr
module Lock_mode = Bess_lock.Lock_mode
module Page_id = Bess_cache.Page_id

type config = {
  n_clients : int;
  txns_per_client : int;
  zipf_theta : float;
  hot_fraction : float;
  hot_pages : int;
  think_ns : int;
  txn_work_ns : int;
  ack_delay_ns : int;
  lock_retry_ns : int;
  max_lock_retries : int;
  churn : float;
  reconnect_ns : int;
  seed : int;
}

let default =
  {
    n_clients = 16;
    txns_per_client = 50;
    zipf_theta = 0.0;
    hot_fraction = 0.0;
    hot_pages = 0;
    think_ns = 200_000;
    txn_work_ns = 5_000;
    ack_delay_ns = 20_000;
    lock_retry_ns = 50_000;
    max_lock_retries = 12;
    churn = 0.0;
    reconnect_ns = 1_000_000;
    seed = 42;
  }

type result = {
  r_commits : int;
  r_aborts : int;
  r_give_ups : int;
  r_indeterminate : int;
  r_disconnects : int;
  r_reconnects : int;
  r_events : int;
  r_sim_ns : int;
  r_commit_p50_ns : int;
  r_commit_p99_ns : int;
}

let throughput r =
  if r.r_sim_ns <= 0 then 0.0
  else float_of_int r.r_commits *. 1e9 /. float_of_int r.r_sim_ns

(* ---- Workload-shape helpers ------------------------------------------- *)

(* Pure functions of the supplied stream, so equal seeds draw equal
   workloads whatever step consumes them. *)

(* The Zipf CDF is O(n) to build, so it is built once and shared:
   clients draw through it with their own streams. Rank i maps to
   working-set index i — popularity order is working-set order. *)
let zipf_cdf ~theta n =
  if theta <= 0.0 || n <= 0 then None
  else begin
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
      cdf.(i) <- !acc
    done;
    Some cdf
  end

let make_picker ~zipf_theta ~hot_fraction ~hot_pages ~n =
  if n <= 0 then invalid_arg "Driver.make_picker: empty working set";
  let cdf = zipf_cdf ~theta:zipf_theta n in
  fun prng ->
    if hot_pages > 0 && hot_fraction > 0.0 && Prng.float prng < hot_fraction then
      Prng.int prng (Stdlib.min hot_pages n)
    else
      match cdf with
      | None -> Prng.int prng n
      | Some cdf ->
          let u = Prng.float prng *. cdf.(n - 1) in
          let rec search lo hi =
            if lo >= hi then lo
            else
              let mid = (lo + hi) / 2 in
              if cdf.(mid) < u then search (mid + 1) hi else search lo mid
          in
          search 0 (n - 1)

let exp_think ~mean_ns prng =
  if mean_ns <= 0 then 0
  else int_of_float (-.float_of_int mean_ns *. log (1.0 -. Prng.float prng))

(* ---- The closed loop -------------------------------------------------- *)

type client = {
  c_id : int;
  c_prng : Prng.t;
  c_jitter : Prng.t; (* guard-timer jitter only: keeps workload draws stable *)
  mutable c_left : int; (* transaction attempts remaining *)
  mutable c_park : int; (* generation token: stale wakes/guards no-op *)
  mutable c_backoff_ns : int; (* previous guard delay (decorrelated jitter state) *)
}

type loop = {
  cfg : config;
  sched : Sched.t;
  st : Stats.t;
  arrive : loop -> client -> unit; (* what a client does when its think time ends *)
  (* The run's simulated span ends at its last *state-changing* event:
     a guard timer whose park token went stale is a tombstone, and the
     heap draining those after the final commit must not stretch
     [r_sim_ns] (it would understate throughput for whichever variant
     schedules the longer guards). Every real handler touches this. *)
  mutable last_ns : int;
}

(* Per-attempt tracing state: the sched.txn root span spanning the
   whole attempt (opened across events via [Span.with_handle]), the
   currently open backoff child, and the scheduler lag accrued by this
   attempt's events. The root carries the accumulated lag and the
   outcome as attributes, which is what {!Bess_obs.Critpath}
   decomposes. *)
type attempt = {
  a_loop : loop;
  a_client : client;
  a_span : Span.handle;
  mutable a_backoff : Span.handle;
  mutable a_lag : int;
}

type outcome = [ `Commit | `Abort | `Give_up | `Indeterminate ]

let client_id a = a.a_client.c_id
let prng a = a.a_client.c_prng
let touch l = l.last_ns <- Span.now_ns ()

let think_then_arrive l c =
  Sched.schedule l.sched ~after:(exp_think ~mean_ns:l.cfg.think_ns c.c_prng) (fun () ->
      touch l;
      if c.c_left > 0 then l.arrive l c)

(* Open the attempt's root and run [step] inside it. *)
let open_attempt l c step =
  let a_span =
    if Span.enabled () then
      Span.start ~root:true ~attrs:[ ("client", string_of_int c.c_id) ] ~kind:"sched.txn" ()
    else Span.none
  in
  let a =
    { a_loop = l; a_client = c; a_span; a_backoff = Span.none;
      a_lag = Sched.current_lag_ns l.sched }
  in
  Span.with_handle a_span (fun () -> step a)

(* Resume the attempt in the current event: bill this event's lag to
   it, close a pending backoff and re-enter the root. *)
let reenter a k =
  touch a.a_loop;
  a.a_lag <- a.a_lag + Sched.current_lag_ns a.a_loop.sched;
  Span.finish a.a_backoff;
  a.a_backoff <- Span.none;
  Span.with_handle a.a_span k

let continue_after a ~after k = Sched.schedule a.a_loop.sched ~after (fun () -> reenter a k)

let close_attempt a ~outcome =
  Span.finish a.a_backoff;
  a.a_backoff <- Span.none;
  Span.finish
    ~attrs:[ ("outcome", outcome); ("sched_lag_ns", string_of_int a.a_lag) ]
    a.a_span

let finish a (outcome : outcome) =
  let l = a.a_loop and c = a.a_client in
  let name, counter =
    match outcome with
    | `Commit -> ("commit", "sched.commits")
    | `Abort -> ("abort", "sched.aborts")
    | `Give_up -> ("give_up", "sched.give_ups")
    | `Indeterminate -> ("indeterminate", "sched.indeterminate")
  in
  Stats.incr l.st counter;
  close_attempt a ~outcome:name;
  c.c_left <- c.c_left - 1;
  if c.c_left > 0 then think_then_arrive l c

(* Guard-timer delay with decorrelated jitter (base..3x previous,
   capped), drawn from the client's own jitter stream: equal-seed
   cohorts never re-poll in lockstep, yet every delay is a pure
   function of the master seed. The timer is only recovery behind a
   wake (or, for a step without one, the retry itself), so it starts
   16x later than the configured retry delay and escalates to a
   matching cap. *)
let next_backoff l c ~retries =
  if retries = 0 then c.c_backoff_ns <- 0;
  let base = l.cfg.lock_retry_ns * 16 in
  let cap = base * 8 in
  let prev = Stdlib.max base c.c_backoff_ns in
  let d = Stdlib.min cap (base + Prng.int c.c_jitter (Stdlib.max 1 ((prev * 3) - base))) in
  c.c_backoff_ns <- d;
  d

let blocked a ~retries ~give_up retry =
  let l = a.a_loop and c = a.a_client in
  if retries >= l.cfg.max_lock_retries then begin
    give_up ();
    finish a `Give_up
  end
  else begin
    Stats.incr l.st "sched.lock_parks";
    a.a_backoff <-
      Span.start ~attrs:[ ("retries", string_of_int retries) ] ~kind:"client.backoff" ();
    let park = c.c_park in
    Sched.schedule l.sched ~after:(next_backoff l c ~retries) (fun () ->
        if c.c_park = park then begin
          Stats.incr l.st "sched.lock_retries";
          reenter a (fun () -> retry (retries + 1))
        end)
  end

let run_loop ?sched ?(join = ignore) cfg arrive =
  if cfg.n_clients <= 0 then invalid_arg "Driver: n_clients must be positive";
  let sched = match sched with Some s -> s | None -> Sched.create () in
  let st = Sched.stats sched in
  let t0 = Span.now_ns () in
  let events0 = Sched.events_run sched in
  (* Outcome counts are this run's deltas of the sched.* counters. *)
  let counts0 = Stats.to_list st in
  let count k = Stats.get st k - Option.value ~default:0 (List.assoc_opt k counts0) in
  let l = { cfg; sched; st; arrive; last_ns = t0 } in
  let master = Prng.create cfg.seed in
  let clients =
    Array.init cfg.n_clients (fun i ->
        let prng = Prng.split master in
        { c_id = 10_000 + i; c_prng = prng; c_jitter = Prng.split prng;
          c_left = cfg.txns_per_client; c_park = 0; c_backoff_ns = 0 })
  in
  (* First arrivals are staggered over a think time so the heap does
     not open on an n_clients-deep convoy at tick zero. *)
  Array.iter (fun c -> join c; think_then_arrive l c) clients;
  ignore (Sched.run sched);
  let commits = count "sched.commits" in
  let p q =
    match Stats.find_histogram st "sched.commit_latency_ns" with
    | Some h when commits > 0 -> Bess_util.Histogram.percentile h q
    | _ -> 0
  in
  {
    r_commits = commits;
    r_aborts = count "sched.aborts";
    r_give_ups = count "sched.give_ups";
    r_indeterminate = count "sched.indeterminate";
    r_disconnects = count "sched.disconnects";
    r_reconnects = count "sched.reconnects";
    r_events = Sched.events_run sched - events0;
    r_sim_ns = l.last_ns - t0;
    r_commit_p50_ns = p 50.0;
    r_commit_p99_ns = p 99.0;
  }

let loop ?sched cfg step = run_loop ?sched cfg (fun l c -> open_attempt l c step)

(* ---- The single-server step ------------------------------------------- *)

let run ?sched server ~pages cfg =
  let n_pages = Array.length pages in
  if n_pages = 0 then invalid_arg "Driver.run: pages must be non-empty";
  let sched = match sched with Some s -> s | None -> Sched.create () in
  let st = Sched.stats sched in
  ignore (Stats.histogram st "sched.commit_latency_ns");
  ignore (Stats.histogram st "sched.txn_latency_ns");
  let pick_page =
    make_picker ~zipf_theta:cfg.zipf_theta ~hot_fraction:cfg.hot_fraction
      ~hot_pages:cfg.hot_pages ~n:n_pages
  in
  let sink _ _ = `Dropped in
  let connect c = Bess.Server.connect_client server ~client:c.c_id ~sink in
  let churn_roll c = cfg.churn > 0.0 && Prng.float c.c_prng < cfg.churn in
  let abort txn ~outcome a =
    Bess.Server.abort_client server ~txn;
    finish a outcome
  in
  (* The churn roll precedes the root: a client that leaves before
     beginning opens no transaction. *)
  let rec arrive l c =
    if churn_roll c then disconnect l c ~holding:false
    else
      open_attempt l c (fun a ->
          let txn = Bess.Server.begin_txn server ~client:c.c_id in
          Span.annotate_handle a.a_span "txn" (string_of_int txn);
          lock a ~txn ~t_begin:(Span.now_ns ()) ~page:(pick_page c.c_prng) ~retries:0)
  and lock a ~txn ~t_begin ~page ~retries =
    let c = a.a_client in
    let pid = pages.(page) in
    let r = Lock_mgr.page_resource ~area:pid.Page_id.area ~page:pid.Page_id.page in
    c.c_park <- c.c_park + 1;
    let park = c.c_park in
    let on_wake () =
      (* Fires synchronously inside the releasing transaction's event,
         with the lock already transferred to us in place. Invalidate
         the pending guard timer and hop back onto the heap so the
         resumed attempt runs as its own event (zero simulated dead
         time: the hop lands at the current tick). *)
      if c.c_park = park then begin
        c.c_park <- c.c_park + 1;
        Stats.incr st "sched.lock_wakeups";
        continue_after a ~after:0 (fun () -> lock a ~txn ~t_begin ~page ~retries)
      end
    in
    match Bess.Server.lock_async server ~txn r Lock_mode.X ~on_wake with
    | `Granted ->
        if churn_roll c then begin
          (* Disconnect while holding the lock: the interrupted attempt
             is consumed, and the server must free everything — the
             no-lock-leak test watches this path. The cleanup runs
             before the root closes so its server spans are attributed
             to the churned attempt. *)
          c.c_left <- c.c_left - 1;
          disconnect a.a_loop c ~holding:true;
          close_attempt a ~outcome:"churn"
        end
        else continue_after a ~after:cfg.txn_work_ns (fun () -> commit a ~txn ~t_begin ~page)
    | `Blocked ->
        (* Park on the wake; the guard timer only re-polls so the lock
           manager's logical clock can return the [`Timeout] verdict,
           and it is the sole path forward for waits no wake can
           resolve (a block caused by cached-copy callbacks alone).
           Giving up also purges our queued waiter and drops the wake
           subscription just registered above. *)
        blocked a ~retries
          ~give_up:(fun () -> Bess.Server.abort_client server ~txn)
          (fun retries -> lock a ~txn ~t_begin ~page ~retries)
    | `Deadlock | `Timeout -> abort txn ~outcome:`Abort a
  and commit a ~txn ~t_begin ~page =
    let pid = pages.(page) in
    match
      let bytes = Bess.Server.read_page server pid in
      let before = Bytes.sub bytes 0 8 in
      let after = Prng.bytes a.a_client.c_prng 8 in
      let u = { Bess.Server.page = pid; offset = 0; before; after } in
      Bess.Server.commit_client_begin server ~txn ~updates:[ u ]
    with
    | exception _ ->
        (* Injected fault with the outcome in doubt: resolve
           pessimistically (abort is idempotent if the commit point was
           in fact passed). *)
        (try Bess.Server.abort_client server ~txn with _ -> ());
        finish a `Indeterminate
    | `Lock_violation -> abort txn ~outcome:`Abort a
    | `Committed ticket ->
        let t_commit = Span.now_ns () in
        (* Open the ticket wait: registration to acknowledged durable.
           The group-commit force this commit rides on lands inside
           this window, so blame for the amortised force lands on WAL
           rather than on unexplained self time. *)
        let wait = Span.start ~kind:"wal.ticket_wait" () in
        continue_after a ~after:cfg.ack_delay_ns (fun () ->
            match Bess.Server.await_commit server ticket with
            | () ->
                let now = Span.now_ns () in
                Stats.observe st "sched.commit_latency_ns" (now - t_commit);
                Stats.observe st "sched.txn_latency_ns" (now - t_begin);
                Span.finish wait;
                finish a `Commit
            | exception _ ->
                (* Ticket lost to a crash between registration and ack. *)
                Span.finish wait;
                finish a `Indeterminate)
  and disconnect l c ~holding =
    if holding then Stats.incr st "sched.churn_holding_locks";
    ignore (Bess.Server.abort_client_txns server ~client:c.c_id);
    Bess.Server.disconnect_client server ~client:c.c_id;
    Stats.incr st "sched.disconnects";
    Sched.schedule sched ~after:cfg.reconnect_ns (fun () ->
        touch l;
        connect c;
        Stats.incr st "sched.reconnects";
        if c.c_left > 0 then think_then_arrive l c)
  in
  run_loop ~sched ~join:connect cfg arrive
