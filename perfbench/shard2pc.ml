(* shard_2pc: a closed loop of clients against a ring of shards, a
   quarter of the transactions spanning two shards through the
   presumed-abort 2PC coordinator. Each attempt is one [Shard.txn] call
   writing one page on every shard it involves. Net messages, the
   coordinator's forced decisions and the per-shard WALs do the work;
   lock waits are rare and vmem is unused. *)

open Common
module Span = Bess_obs.Span
module Prng = Bess_util.Prng
module Sched = Bess_sched.Sched
module Driver = Bess_sched.Driver
module Shard = Bess_shard.Shard

type cfg = {
  shards : int;
  pages_per_shard : int;
  clients : int;
  txns_per_client : int;
  cross_frac : float;
  think_ns : int;
}

let full =
  { shards = 4; pages_per_shard = 1024; clients = 64; txns_per_client = 200; cross_frac = 0.25;
    think_ns = 200_000 }

let tiny = { full with pages_per_shard = 64; clients = 8; txns_per_client = 10 }

type env = {
  cfg : cfg;
  ring : Shard.t;
  sched : Sched.t;
  shadow : Bytes.t array array; (* shard -> rank -> last committed 8 bytes *)
}

let setup cfg =
  let ring = Shard.create ~n:cfg.shards ~pages_per_shard:cfg.pages_per_shard () in
  let sched = Sched.create () in
  for i = 0 to cfg.shards - 1 do
    let server = Shard.server ring i in
    let store = Bess.Server.store server in
    List.iter Counters.track
      [ Bess.Server.stats server; Bess_lock.Lock_mgr.stats (Bess.Server.locks server);
        Bess_lock.Callback.stats (Bess.Server.callback_registry server); Bess.Store.stats store;
        Bess_wal.Log.stats (Bess.Store.log store); Bess_cache.Cache.stats (Bess.Store.cache store) ]
  done;
  let coord = Shard.coord ring in
  List.iter Counters.track
    [ Bess_net.Net.stats (Shard.net ring); Bess_shard.Twopc.stats coord;
      Bess_wal.Log.stats (Bess_shard.Twopc.log coord); Sched.stats sched ];
  { cfg; ring; sched;
    shadow = Array.init cfg.shards (fun _ -> Array.init cfg.pages_per_shard (fun _ -> Bytes.make 8 '\000')) }

type client = { id : int; prng : Prng.t; mutable left : int }

let measure env ~seed =
  let cfg = env.cfg and sched = env.sched in
  let t = tally () in
  let t0 = Span.now_ns () in
  let last = ref t0 in
  let pick = Driver.make_picker ~zipf_theta:0.8 ~hot_fraction:0.0 ~hot_pages:0 ~n:cfg.pages_per_shard in
  let master = Prng.create seed in
  let clients =
    Array.init cfg.clients (fun i -> { id = 10_000 + i; prng = Prng.split master; left = cfg.txns_per_client })
  in
  (* The involved shards (a second one with probability cross_frac) and
     one fresh 8-byte value at offset 0 of a Zipf-picked page on each. *)
  let draw c =
    let primary = Prng.int c.prng cfg.shards in
    let shards =
      if cfg.shards > 1 && Prng.float c.prng < cfg.cross_frac then
        [ primary; (primary + 1 + Prng.int c.prng (cfg.shards - 1)) mod cfg.shards ]
      else [ primary ]
    in
    List.map (fun s -> (s, pick c.prng, 0, Prng.bytes c.prng 8)) shards
  in
  let rec start c =
    last := Span.now_ns ();
    (* Due time: the client was ready [lag] ago and waited for the heap. *)
    let lag = Sched.current_lag_ns sched in
    let due = Span.now_ns () - lag in
    let writes = draw c in
    t.attempts <- t.attempts + 1;
    let span =
      if Span.enabled () then
        Span.start ~root:true ~attrs:[ ("client", string_of_int c.id) ] ~kind:"sched.txn" ()
      else Span.none
    in
    let root = Tracer.open_attempt () in
    Tracer.enter root ~txn:t.attempts;
    let w0 = Tracer.start () in
    let r =
      match Span.with_handle span (fun () -> Shard.txn env.ring ~client:c.id ~writes ()) with
      | v -> Ok v
      | exception e -> Error e
    in
    Tracer.stop t_shard_txn w0;
    last := Span.now_ns ();
    let outcome =
      match r with
      | Ok `Committed ->
          List.iter (fun (s, rank, _, v) -> env.shadow.(s).(rank) <- v) writes;
          committed t ~latency_ns:(Span.now_ns () - due);
          "commit"
      | Ok `Aborted -> "2pc_abort"
      | Ok `Blocked -> "blocked"
      | Error e -> exn_name e
    in
    if outcome <> "commit" then failed t outcome;
    Span.finish ~attrs:[ ("outcome", outcome); ("sched_lag_ns", string_of_int lag) ] span;
    Tracer.close_attempt root ~txn:t.attempts;
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

(* Quiesce (resolve anything in doubt), then: no lock held and nothing in
   doubt on any shard, no decision left unacknowledged, and every page on
   every shard holds its last committed global write. [inject] corrupts
   one shadow entry first, to prove the checker catches a wrong value. *)
let verify env ~inject =
  let cfg = env.cfg in
  let _resolved, unresolved = Shard.resolve_in_doubt env.ring in
  let locks = Shard.locks_held env.ring and in_doubt = Shard.in_doubt env.ring in
  let undecided = Bess_shard.Twopc.unresolved (Shard.coord env.ring) in
  if inject then Bytes.set env.shadow.(0).(0) 0 (Char.chr (Char.code (Bytes.get env.shadow.(0).(0) 0) lxor 1));
  let bad = ref 0 in
  let digest = Buffer.create (8 * cfg.shards * cfg.pages_per_shard) in
  for s = 0 to cfg.shards - 1 do
    for rank = 0 to cfg.pages_per_shard - 1 do
      let got = Bytes.sub (Shard.page_image env.ring s rank) 0 8 in
      Buffer.add_bytes digest got;
      if not (Bytes.equal got env.shadow.(s).(rank)) then incr bad
    done
  done;
  ( [ ("quiesced", locks = 0 && in_doubt = 0 && unresolved = 0,
       Printf.sprintf "%d locks, %d in doubt, %d unresolvable after quiesce" locks in_doubt unresolved);
      ("decisions_acked", undecided = 0, Printf.sprintf "%d decisions unacknowledged" undecided);
      ("acked_writes_on_shards", !bad = 0,
       Printf.sprintf "%d of %d pages differ from the acked shadow" !bad
         (cfg.shards * cfg.pages_per_shard)) ],
    Buffer.contents digest )
