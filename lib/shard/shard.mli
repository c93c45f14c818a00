(** The shard ring: N single-server databases behind one simulated
    network, partitioned by the OID host field, with a presumed-abort
    2PC coordinator ({!Twopc}) for cross-shard atomicity.

    Shard [i] runs host/endpoint/db_id [i+1] and owns a committed
    working set of data pages in popularity order. Client operations
    cross the wire: begin, X-lock-and-fetch, two-phase commit. *)

type t

(** [create ~n ()] builds [n] in-memory shards, serves each on the
    network, allocates [pages_per_shard] data pages per shard, and
    registers the coordinator (endpoint [coord_id], default 900). *)
val create :
  ?n:int ->
  ?pages_per_shard:int ->
  ?page_size:int ->
  ?coord_id:int ->
  ?coord_log_path:string ->
  ?policy:Bess_wal.Group_commit.policy ->
  ?per_message_ns:int ->
  ?per_byte_ns:int ->
  unit ->
  t

val n_shards : t -> int
val net : t -> Bess.Remote.network
val coord : t -> Twopc.t
val db : t -> int -> Bess.Db.t
val server : t -> int -> Bess.Server.t

(** Network endpoint of shard [i] (= its db_id = [i+1]). *)
val endpoint : t -> int -> int

(** Shard [i]'s working set, popularity order. *)
val pages : t -> int -> Bess_cache.Page_id.t array

val pages_per_shard : t -> int

(** Routing: host [h] lives on shard [(h-1) mod n]. *)
val shard_of_host : t -> host:int -> int

val shard_of_oid : t -> Bess.Oid.t -> int
val server_of_oid : t -> Bess.Oid.t -> Bess.Server.t
val endpoint_of_oid : t -> Bess.Oid.t -> int

exception Protocol of string

(** [txn t ~client ~writes ()] runs one global transaction over the
    wire: [writes] is [(shard, page rank, offset, value)]. [`Blocked]
    means a page lock was unavailable or a begin/fetch was lost; every
    transaction the attempt began has been aborted and the caller may
    retry. [chaos] is passed through to {!Twopc.commit}.
    {!Twopc.Crashed} propagates with participants prepared — their fate
    belongs to the recovered coordinator. *)
val txn :
  ?chaos:(unit -> unit) ->
  t ->
  client:int ->
  writes:(int * int * int * Bytes.t) list ->
  unit ->
  [ `Committed | `Aborted | `Blocked ]

(** Participants [(endpoint, txn)] of the most recent {!txn} attempt
    that reached two-phase commit — harness introspection, so a torture
    test can ask the coordinator about the exact transactions a crashed
    commit left behind. *)
val last_parts : t -> (int * int) list

(** Query the coordinator for every prepared transaction on every
    shard: decision present ⇒ commit, absent ⇒ abort (presumed abort).
    Unanswerable queries leave the transaction prepared, locks held.
    Returns (resolved, still prepared). *)
val resolve_in_doubt : t -> int * int

val crash_shard : t -> int -> unit

(** ARIES restart of shard [i] (in-doubt transactions come back
    prepared with X locks reacquired) plus a fresh [Remote.serve] so
    the volatile dedup/ticket tables restart empty. *)
val recover_shard : t -> int -> Bess_wal.Recovery.outcome

(** Locks held across all shard lock tables (0 when quiesced). *)
val locks_held : t -> int

(** Prepared transactions across all shards. *)
val in_doubt : t -> int

val page_image : t -> int -> int -> Bytes.t

(** CRC over every shard's working set in shard/rank order — the
    byte-for-byte replay witness. *)
val images_crc : t -> int

(** {1 Closed-loop clients} *)

type result = {
  driver : Bess_sched.Driver.result;
  cross_commits : int;  (** commits that spanned two shards *)
  fingerprint : string; (** outcome counts + {!images_crc}: the replay witness *)
}

(** [run t ~cross_fraction cfg] drives [cfg]'s clients against the
    ring on {!Bess_sched.Driver.loop}. Each attempt draws a primary
    shard, a second one with probability [cross_fraction], and one
    fresh 8-byte value at offset 0 of a picked page on each, then runs
    one {!txn} inside the attempt's root — one scheduler event per
    attempt. A [`Blocked] attempt retries the same writes through the
    driver's guard. An injected coordinator crash ({!Twopc.Crashed}) is
    handled in-loop: {!Twopc.recover}, then {!resolve_in_doubt}, and
    the attempt counts indeterminate. The page picker reads [cfg]'s
    [zipf_theta]/[hot_fraction]/[hot_pages]; [txn_work_ns],
    [ack_delay_ns], [churn] and [reconnect_ns] are unused. Equal seeds
    replay byte-for-byte, [fingerprint] included. *)
val run :
  ?sched:Bess_sched.Sched.t -> t -> cross_fraction:float -> Bess_sched.Driver.config -> result
