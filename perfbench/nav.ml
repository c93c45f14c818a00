(* nav_spill: the paper's headline path. Direct sessions, closed-loop
   clients on the scheduler heap, take turns running transactions that
   resolve one object by OID, follow swizzled
   references through a ring graph much larger than the session pools
   and the server cache, and update a tenth of the objects they visit.
   Vmem faults, swizzling, session-pool replacement (section 4.2),
   server-cache misses and callback locking do the work; there are no
   lock waits and no network, and the scheduler only orders the turns.

   A transaction that dies on an exception is aborted, its session's
   cached pages are dropped, and the attempt counts as failed under the
   exception's name. The known section-4.2 defect shows up here: the
   session clock revokes access on pinned slot pages, and a data fault
   that then reads one inside the fault handler raises
   [Vmem.Access_violation]. *)

open Common
module Span = Bess_obs.Span
module Prng = Bess_util.Prng
module Vmem = Bess_vmem.Vmem
module Session = Bess.Session
module Driver = Bess_sched.Driver
module Sched = Bess_sched.Sched

type cfg = {
  n_objects : int;
  per_seg : int; (* objects per segment *)
  stride : int; (* ring hop: object i refers to object (i + stride) mod n *)
  hops : int; (* references followed per transaction *)
  update_frac : float; (* share of visited objects updated *)
  sessions : int;
  think_ns : int; (* mean, exponential, per session between transactions *)
  pool_slots : int; (* per session *)
  cache_slots : int; (* server *)
  txns : int;
}

(* A stride of one segment plus one object makes every hop leave its
   segment, so a walk touches [hops + 1] segments. *)
let full =
  { n_objects = 40_000; per_seg = 250; stride = 251; hops = 16; update_frac = 0.1;
    sessions = 4; think_ns = 200_000; pool_slots = 512; cache_slots = 512; txns = 2_400 }

let tiny = { full with n_objects = 2_000; pool_slots = 64; cache_slots = 64; txns = 150 }

let obj_size = 32

type env = {
  cfg : cfg;
  db : Bess.Db.t;
  sessions : Session.t array;
  sched : Sched.t;
  oids : Bess.Oid.t array;
  shadow : int array; (* committed payload per object *)
}

(* Build the ring in one transaction through a loader session with room
   for every page, then drop the loader: its cache is discarded and the
   server forgets its cached copies, so the measured sessions start cold
   and never call it back. Payload of object i (offset 8) is i. *)
let build db cfg =
  let loader = Bess.Db.session ~pool_slots:8192 db in
  let types = Bess.Catalog.types (Bess.Db.catalog db) in
  let ty = Bess.Type_desc.register types ~name:"perf_node" ~size:obj_size ~ref_offsets:[| 0 |] in
  Session.begin_txn loader;
  let data_pages = ((cfg.per_seg * obj_size * 5 / 4) + 4095) / 4096 in
  let slotted_pages = Bess.Layout.slotted_pages ~n_slots:(cfg.per_seg + 4) ~page_size:4096 in
  let mem = Session.mem loader in
  let nodes = Array.make cfg.n_objects 0 in
  let seg = ref None in
  for i = 0 to cfg.n_objects - 1 do
    if i mod cfg.per_seg = 0 then
      seg := Some (Session.create_segment loader ~slotted_pages ~data_pages ());
    nodes.(i) <- Session.create_object loader (Option.get !seg) ty ~size:obj_size;
    Vmem.write_i64 mem (Session.obj_data loader nodes.(i) + 8) i
  done;
  Array.iteri
    (fun i node ->
      Session.write_ref loader ~data_addr:(Session.obj_data loader node)
        (Some nodes.((i + cfg.stride) mod cfg.n_objects)))
    nodes;
  let oids = Array.map (Session.oid_of loader) nodes in
  Session.commit loader;
  Session.drop_all_cached loader;
  Bess.Server.disconnect_client (Bess.Db.server db) ~client:1;
  oids

let setup cfg =
  let db = Bess.Db.create_memory ~cache_slots:cfg.cache_slots ~db_id:12 () in
  let oids = build db cfg in
  let sessions = Array.init cfg.sessions (fun _ -> Bess.Db.session ~pool_slots:cfg.pool_slots db) in
  let sched = Sched.create () in
  let server = Bess.Db.server db in
  let store = Bess.Server.store server in
  List.iter Counters.track
    [ Sched.stats sched; Bess.Server.stats server; Bess_lock.Lock_mgr.stats (Bess.Server.locks server);
      Bess_lock.Callback.stats (Bess.Server.callback_registry server); Bess.Store.stats store;
      Bess_wal.Log.stats (Bess.Store.log store); Bess_cache.Cache.stats (Bess.Store.cache store) ];
  Array.iter
    (fun s ->
      List.iter Counters.track
        [ Session.stats s; Vmem.stats (Session.mem s);
          Bess_cache.State_clock.stats s.Session.clock ])
    sessions;
  { cfg; db; sessions; sched; oids; shadow = Array.init cfg.n_objects Fun.id }

type client = { session : Session.t; prng : Prng.t; mutable left : int }

let measure env ~seed =
  let cfg = env.cfg and sched = env.sched in
  let t = tally () in
  let pick = Driver.make_picker ~zipf_theta:0.8 ~hot_fraction:0.0 ~hot_pages:0 ~n:cfg.n_objects in
  let t0 = Span.now_ns () in
  let last = ref t0 in
  let master = Prng.create seed in
  let clients =
    Array.map
      (fun session -> { session; prng = Prng.split master; left = cfg.txns / cfg.sessions })
      env.sessions
  in
  let visits = cfg.hops + 1 in
  let updates = Array.make visits false in
  let written = Array.make visits (-1) in
  (* One transaction, run to completion inside its event: the sessions
     take turns, and a session whose think time ended while another was
     running waits for its turn (the wait counts in its latency). *)
  let rec start c =
    let s = c.session in
    let mem = Session.mem s in
    let lag = Sched.current_lag_ns sched in
    let due = Span.now_ns () - lag in
    (* Every draw is taken before the transaction runs, so a failed
       attempt consumes the same randomness as a committed one. *)
    let first = pick c.prng in
    for h = 0 to visits - 1 do
      updates.(h) <- Prng.float c.prng < cfg.update_frac;
      written.(h) <- -1
    done;
    let k = t.attempts in
    t.attempts <- k + 1;
    let value h = cfg.n_objects + (k * visits) + h in
    let span =
      if Span.enabled () then Span.start ~root:true ~kind:"sched.txn" () else Span.none
    in
    let root = Tracer.open_attempt () in
    Tracer.enter root ~txn:k;
    let outcome =
      match
        Span.with_handle span (fun () ->
            Session.begin_txn s;
            let w0 = Tracer.start () in
            let cur = ref (Session.by_oid s env.oids.(first)) in
            Tracer.stop t_session_by_oid w0;
            let idx = ref first in
            for h = 0 to visits - 1 do
              let w0 = Tracer.start () in
              let data = Session.obj_data s !cur in
              Tracer.stop t_session_obj_data w0;
              let w0 = Tracer.start () in
              let v = Vmem.read_i64 mem (data + 8) in
              Tracer.stop t_vmem_read w0;
              if v <> env.shadow.(!idx) then t.mismatches <- t.mismatches + 1;
              if updates.(h) then begin
                let w0 = Tracer.start () in
                Vmem.write_i64 mem (data + 8) (value h);
                Tracer.stop t_vmem_write w0;
                written.(h) <- !idx
              end;
              if h < cfg.hops then begin
                let w0 = Tracer.start () in
                let next = Session.read_ref s ~data_addr:data in
                Tracer.stop t_session_read_ref w0;
                match next with
                | Some n ->
                    cur := n;
                    idx := (!idx + cfg.stride) mod cfg.n_objects
                | None -> failwith "ring broken"
              end
            done;
            let w0 = Tracer.start () in
            Session.commit s;
            Tracer.stop t_session_commit w0)
      with
      | () ->
          Array.iteri (fun h i -> if i >= 0 then env.shadow.(i) <- value h) written;
          committed t ~latency_ns:(Span.now_ns () - due);
          "commit"
      | exception e ->
          (* Abort restores the dirtied frames; dropping the cached pages
             discards whatever state the failure left behind. A cleanup
             step that raises too is named in the failure reason. *)
          let reason = exn_name e in
          let reason =
            match if Session.in_txn s then Session.abort s with
            | () -> reason
            | exception _ -> reason ^ "+abort_raised"
          in
          let reason =
            match Session.drop_all_cached s with
            | () -> reason
            | exception _ -> reason ^ "+drop_raised"
          in
          failed t reason;
          reason
    in
    last := Span.now_ns ();
    Span.finish ~attrs:[ ("outcome", outcome); ("sched_lag_ns", string_of_int lag) ] span;
    Tracer.close_attempt root ~txn:k;
    c.left <- c.left - 1;
    if c.left > 0 then
      Sched.schedule sched ~after:(Driver.exp_think ~mean_ns:cfg.think_ns c.prng) (fun () -> start c)
  in
  Array.iter
    (fun c ->
      Sched.schedule sched ~after:(Driver.exp_think ~mean_ns:cfg.think_ns c.prng) (fun () -> start c))
    clients;
  ignore (Sched.run sched);
  (t, !last - t0)

(* A fresh session with room for the whole graph walks the ring once from
   object 0: every payload must equal the shadow of committed values, and
   the walk must come back to its start after exactly n hops. [inject]
   corrupts one shadow entry first, to prove the checker catches it. *)
let verify env ~inject =
  let cfg = env.cfg in
  let server = Bess.Db.server env.db in
  let locks = Bess_lock.Lock_mgr.n_locks (Bess.Server.locks server) in
  if inject then env.shadow.(0) <- env.shadow.(0) + 1;
  let s = Bess.Db.session ~pool_slots:8192 env.db in
  let mem = Session.mem s in
  let bad = ref 0 in
  let digest = Buffer.create (8 * cfg.n_objects) in
  Session.begin_txn s;
  let start = Session.by_oid s env.oids.(0) in
  let cur = ref start and idx = ref 0 in
  for _ = 1 to cfg.n_objects do
    let data = Session.obj_data s !cur in
    let v = Vmem.read_i64 mem (data + 8) in
    Buffer.add_string digest (string_of_int v);
    if v <> env.shadow.(!idx) then incr bad;
    (match Session.read_ref s ~data_addr:data with
    | Some n -> cur := n
    | None -> incr bad);
    idx := (!idx + cfg.stride) mod cfg.n_objects
  done;
  let closed = !cur = start in
  Session.commit s;
  ( [ ("lock_table_empty", locks = 0, Printf.sprintf "%d locks held after the run" locks);
      ("ring_intact", closed, "walk of n hops returns to object 0");
      ("committed_values_read_back", !bad = 0,
       Printf.sprintf "%d of %d objects differ from the committed shadow" !bad cfg.n_objects) ],
    Buffer.contents digest )
