(** Closed-loop multi-client workload driver on the {!Sched} event heap.

    One client loop ({!loop}) serves every workload: each simulated
    client thinks, opens a [sched.txn] root span, runs one transaction
    attempt through a per-attempt {e step}, and thinks again — the
    classic closed-loop methodology, so offered load self-regulates
    with latency. The loop owns the clients, the root span (closed with
    its [outcome] and [sched_lag_ns]), the [sched.*] outcome counters
    and the blocked-retry guard. {!run} is the single-server step; the
    shard ring's is [Bess_shard.Shard.run].

    The single-server step X-locks a page chosen by a Zipf-skewed (plus
    hot-set) picker, does modeled work, commits through the
    group-commit barrier and awaits the durability acknowledgement.
    Blocked lock requests park on the wake-on-release handoff
    ([Bess.Server.lock_async]); the guard timer survives per park
    solely for [`Timeout]/[`Deadlock] recovery ([sched.lock_parks],
    [sched.lock_wakeups], [sched.lock_retries]). Session churn
    disconnects clients (optionally while holding locks — the server
    must free the lock table) and reconnects them after a delay.

    All randomness comes from per-client splitmix64 streams split off
    [seed] (guard jitter has its own per-client stream), and all
    interleaving from the deterministic event heap, so the same config
    produces identical event orders and counters. *)

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

(** Workload-shape helpers, shared by every step so equal seeds draw
    equal workloads whether a run is single-server or sharded.
    [make_picker] returns a closure drawing working-set
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

(** {1 Writing a step} *)

(** One client's attempt in flight. The step runs inside its root span
    and ends it with exactly one {!finish}, directly or through
    {!blocked}. *)
type attempt

type outcome = [ `Commit | `Abort | `Give_up | `Indeterminate ]

(** The attempting client's id (10000 + its index). *)
val client_id : attempt -> int

(** The client's workload stream. *)
val prng : attempt -> Bess_util.Prng.t

(** Count the outcome, close the root and think toward the client's
    next attempt. *)
val finish : attempt -> outcome -> unit

(** The blocked-retry guard: past [max_lock_retries] retries, run
    [give_up] and finish the attempt [`Give_up]; otherwise park
    ([sched.lock_parks]) under a [client.backoff] child and, after the
    jittered guard delay ([sched.lock_retries]), call the retry with
    the new retry count, back inside the root. *)
val blocked : attempt -> retries:int -> give_up:(unit -> unit) -> (int -> unit) -> unit

(** [loop cfg step] drives [cfg.n_clients] clients, calling [step]
    once per attempt, until every client has spent its budget.
    [txn_work_ns], [ack_delay_ns], [churn] and [reconnect_ns] are the
    single-server step's; the loop ignores them. A fresh {!Sched} is
    created unless [sched] is supplied. *)
val loop : ?sched:Sched.t -> config -> (attempt -> unit) -> result
