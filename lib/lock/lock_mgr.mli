(** The lock table: strict two-phase locking with FIFO wait queues and
    wake-on-release grant handoff.

    Cooperative (non-blocking): {!acquire} returns a verdict; a
    {!release_all} elsewhere grants the maximal compatible FIFO prefix
    of each affected queue *in place* — the lock transfers before any
    new acquirer can barge — and fires the registered wake hook per
    granted transaction, so blocked callers park on the wake instead of
    poll-retrying; waiters whose timeout budget expires are woken the
    same way, so a doomed request discovers [`Timeout] on its immediate
    re-poll instead of sleeping until a guard timer fires. Deadlocks are detected either by an exact waits-for-graph cycle
    check or by timeouts on a logical clock (the paper's distributed
    mechanism). *)

(** A lockable resource: [space] separates the page / object / file
    namespaces; [a]/[b] are namespace-specific coordinates. *)
type resource = { space : int; a : int; b : int }

val page_resource : area:int -> page:int -> resource
val object_resource : db:int -> slot:int -> resource
val file_resource : db:int -> file:int -> resource
val pp_resource : Format.formatter -> resource -> unit

type t

(** [create ~timeout ()]: [timeout] is in logical ticks for the
    [`Timeout] detector. *)
val create : ?timeout:int -> unit -> t

val stats : t -> Bess_util.Stats.t

(** Advance the logical clock (timeout detection). *)
val tick : t -> unit

val now : t -> int

(** Live waiters across all entries, maintained incrementally (also
    backs the [lock.waiters] gauge). *)
val n_waiters : t -> int

(** Fired once per transaction granted in place by a release (in grant
    order), and once per waiter whose timeout budget expires (so its
    re-poll can observe [`Timeout] without waiting for a guard timer).
    The hook runs inside the releasing (or clock-advancing) call —
    receivers should only note the event (e.g. schedule the parked
    client's resumption), not reenter the lock table. *)
val set_wake_hook : t -> (txn:int -> unit) option -> unit

(** Veto for in-place grants: called before a handoff transfers the
    lock; returning [false] leaves the waiter queued — it keeps its
    FIFO position and is woken immediately so its own re-poll (which
    runs the full callback path) resolves the conflict. The server uses
    this to run callback locking — an in-place grant must not bypass
    other clients' cached-copy conflicts. The filter may run arbitrary
    client callbacks; the scan re-checks state after it. *)
val set_grant_filter : t -> (txn:int -> resource -> Lock_mode.t -> bool) option -> unit

type verdict = [ `Granted | `Blocked | `Deadlock | `Timeout ]

(** Request [mode] on a resource for [txn]. Regrants and upgrades of held
    locks are recognised; fresh requests respect FIFO order so writers
    are not starved. [`Deadlock] is a proven waits-for cycle: this
    transaction should abort. [`Timeout] (timeout detection only) is
    mere suspicion — the caller may abort-and-retry the transaction,
    where retrying a proven deadlock verbatim would just cycle again. *)
val acquire : ?detect:[ `Graph | `Timeout ] -> t -> txn:int -> resource -> Lock_mode.t -> verdict

(** Current cumulative mode held by [txn], if any. *)
val held_mode : t -> txn:int -> resource -> Lock_mode.t option

(** Does [txn] hold a mode covering [mode]? *)
val holds : t -> txn:int -> resource -> Lock_mode.t -> bool

(** Strict 2PL release at commit/abort; also purges the transaction's
    queued waiters everywhere. Returns the transactions granted in place
    (their wake hooks already fired). *)
val release_all : t -> txn:int -> int list

(** Drop one resource early (callback processing, not 2PL). Successors
    are granted in place here too. *)
val release_one : t -> txn:int -> resource -> unit

val held_resources : t -> txn:int -> resource list
val n_locks : t -> int
