(** Closed-loop multi-client workload driver on the {!Sched} event heap.

    Each simulated client is a resumable state machine: think, begin a
    transaction, X-lock a page chosen by a Zipf-skewed (plus hot-set)
    picker, do modeled work, commit through the group-commit barrier,
    await the durability acknowledgement, think again — the classic
    closed-loop methodology, so offered load self-regulates with
    latency. Blocked lock requests park on the lock manager's
    wake-on-release handoff ([Bess.Server.lock_async]) and resume the
    moment the lock is transferred to them in place; a
    decorrelated-jitter guard timer survives per park solely for
    [`Timeout]/[`Deadlock] recovery. Proven deadlocks and timeout
    suspicions abort and consume the attempt; [sched.lock_parks],
    [sched.lock_wakeups] and [sched.lock_retries] count the park/wake
    traffic. Session churn disconnects clients (optionally while
    holding locks — the server must abort their transactions and free
    the lock table) and reconnects them after a delay.

    All randomness comes from per-client splitmix64 streams split off
    [seed] (guard jitter has its own per-client stream so timer noise
    never perturbs the workload draws), and all interleaving from the
    deterministic event heap, so the same config produces identical
    event orders and counters. *)

type config = {
  n_clients : int;
  txns_per_client : int;  (** transaction attempts per client (commit, abort or give-up) *)
  zipf_theta : float;     (** skew of the page picker; 0.0 = uniform *)
  hot_fraction : float;   (** fraction of picks redirected to the hot set *)
  hot_pages : int;        (** hot-set size (first pages of the working set) *)
  think_ns : int;         (** mean think time (exponential) *)
  txn_work_ns : int;      (** modeled in-transaction work between lock and commit *)
  ack_delay_ns : int;     (** delay before a committer polls its durability ticket *)
  lock_retry_ns : int;    (** guard-timer unit: a parked request's guard starts at 16x this *)
  max_lock_retries : int; (** guard-fire budget before a blocked attempt gives up *)
  churn : float;          (** per-decision-point probability of disconnecting *)
  reconnect_ns : int;     (** delay before a churned client reconnects *)
  seed : int;
}

(** 1-page-per-txn updates over a uniform working set, no churn: a
    starting point for record updates. *)
val default : config

type result = {
  r_commits : int;
  r_aborts : int;          (** deadlock / timeout-suspicion aborts *)
  r_give_ups : int;        (** lock-retry budgets exhausted *)
  r_indeterminate : int;   (** commit outcomes lost to injected faults *)
  r_disconnects : int;
  r_reconnects : int;
  r_events : int;          (** scheduler events executed *)
  r_sim_ns : int;          (** simulated time through the last state-changing event
                               (stale guard-timer tombstones past the end don't stretch it) *)
  r_commit_p50_ns : int;   (** commit-begin to durability-ack latency *)
  r_commit_p99_ns : int;
}

(** Commits per simulated second. *)
val throughput : result -> float

(** Workload-shape helpers, shared with the multi-shard fleet so equal
    seeds draw equal workloads whether a run is single-server or
    sharded. [make_picker] returns a closure drawing working-set
    indices: a [hot_fraction] of picks land uniformly in the first
    [hot_pages] entries, the rest follow a Zipf([zipf_theta]) over all
    [n] ranks (uniform when the theta is 0). [exp_think] draws an
    exponentially distributed think time with the given mean. Both are
    pure functions of the supplied stream. *)
val make_picker :
  zipf_theta:float -> hot_fraction:float -> hot_pages:int -> n:int ->
  Bess_util.Prng.t -> int

val exp_think : mean_ns:int -> Bess_util.Prng.t -> int

(** [run server ~pages cfg] drives [cfg.n_clients] clients against
    [server] until every client has consumed its attempt budget.
    [pages] is the working set, in popularity order: the Zipf picker
    favours low indices and the hot set is the first [hot_pages]
    entries. The pages must already exist on the server. Use
    [Bess.Server.set_detection server `Timeout] at simulated-fleet
    scale — the exact graph detector scans the whole table per blocked
    request. A fresh {!Sched} is created unless [sched] is supplied. *)
val run :
  ?sched:Sched.t -> Bess.Server.t -> pages:Bess_cache.Page_id.t array -> config -> result
