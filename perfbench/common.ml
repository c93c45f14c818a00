(* Plumbing shared by the three workloads: the real-clock layer timers and
   span log of the traced run, counter collection through a private
   metrics registry, outcome tallies and latency samples, and JSON
   emission. *)

let wall_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- Real-clock layer timers and span log ------------------------------- *)

(* Every public call the benchmark times, by layer. Index = timer id. *)
let timer_names =
  [| "lock.acquire"; "wal.commit_begin"; "wal.await"; "cache.read_page";
     "session.by_oid"; "session.read_ref"; "session.obj_data"; "session.commit";
     "vmem.read"; "vmem.write"; "shard.txn" |]

let t_lock_acquire = 0
let t_wal_commit_begin = 1
let t_wal_await = 2
let t_cache_read_page = 3
let t_session_by_oid = 4
let t_session_read_ref = 5
let t_session_obj_data = 6
let t_session_commit = 7
let t_vmem_read = 8
let t_vmem_write = 9
let t_shard_txn = 10

(* Span name index of a transaction attempt (the root of its layer spans). *)
let span_attempt = Array.length timer_names

module Tracer = struct
  let on = ref false
  let calls = Array.make (Array.length timer_names) 0
  let total_ns = Array.make (Array.length timer_names) 0

  (* Spans, six ints each: id, parent (0 = none), txn, name index,
     start, end (ns on the monotonic clock). Kept in memory and written
     out once the run ends. *)
  let log = ref (Array.make (6 * 4096) 0)
  let n_spans = ref 0
  let next_id = ref 1

  (* The attempt whose event is running: parent and txn of the layer
     spans it opens. Workloads set it whenever they resume an attempt. *)
  let cur_root = ref 0
  let cur_txn = ref 0

  let push ~id ~parent ~txn ~name ~start ~stop =
    let i = 6 * !n_spans in
    if i + 6 > Array.length !log then begin
      let bigger = Array.make (2 * Array.length !log) 0 in
      Array.blit !log 0 bigger 0 i;
      log := bigger
    end;
    let a = !log in
    a.(i) <- id;
    a.(i + 1) <- parent;
    a.(i + 2) <- txn;
    a.(i + 3) <- name;
    a.(i + 4) <- start;
    a.(i + 5) <- stop;
    incr n_spans

  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id

  (* [start ()] / [stop k t0] bracket one call into layer [k]. Off, they
     cost one branch each and touch no state. *)
  let[@inline] start () = if !on then wall_ns () else 0

  let stop k t0 =
    if !on then begin
      let t1 = wall_ns () in
      calls.(k) <- calls.(k) + 1;
      total_ns.(k) <- total_ns.(k) + (t1 - t0);
      push ~id:(fresh_id ()) ~parent:!cur_root ~txn:!cur_txn ~name:k ~start:t0 ~stop:t1
    end

  (* An attempt's root span: opened when the attempt starts, closed when
     it ends. Attempts of a closed loop interleave, so root intervals
     overlap; the layer spans under a root are that attempt's own. *)
  let open_attempt () = if !on then (fresh_id (), wall_ns ()) else (0, 0)

  let enter (root, _) ~txn =
    cur_root := root;
    cur_txn := txn

  let close_attempt (root, t0) ~txn =
    if !on then push ~id:root ~parent:0 ~txn ~name:span_attempt ~start:t0 ~stop:(wall_ns ())

  let write_spans path ~origin =
    let oc = open_out path in
    output_string oc "id,parent,txn,name,start_ns,end_ns\n";
    let a = !log in
    for s = 0 to !n_spans - 1 do
      let i = 6 * s in
      let name =
        if a.(i + 3) = span_attempt then "attempt" else timer_names.(a.(i + 3))
      in
      Printf.fprintf oc "%d,%d,%d,%s,%d,%d\n" a.(i) a.(i + 1) a.(i + 2) name
        (a.(i + 4) - origin) (a.(i + 5) - origin)
    done;
    close_out oc
end

(* ---- Counters ------------------------------------------------------------ *)

(* Every substrate instance of the run registered under its own key in a
   private registry: the process-wide one keeps only the newest instance
   per namespace, and the shard ring and the session fleet have several.
   [delta] sums a registry diff across instances by counter name, so a
   stats table reachable from two layers (a group commit reports its
   log's table) is registered once, not counted twice. *)
module Counters = struct
  let registry = Bess_obs.Registry.create ()
  let tracked = ref []

  let track stats =
    if not (List.memq stats !tracked) then begin
      tracked := stats :: !tracked;
      Bess_obs.Registry.register_stats ~registry
        (Printf.sprintf "i%d" (List.length !tracked)) stats
    end

  let snapshot () = Bess_obs.Registry.snapshot ~registry ()

  let delta ~before ~after =
    let d = Bess_obs.Registry.diff ~before ~after () in
    let sums = Hashtbl.create 64 in
    List.iter
      (fun (name, v) ->
        (* "i<k>.<counter>": labeled counters ("net.calls{1->2}") are
           per-link detail the metrics do not use. *)
        if not (String.contains name '{') then
          match String.index_opt name '.' with
          | Some dot ->
              let key = String.sub name (dot + 1) (String.length name - dot - 1) in
              Hashtbl.replace sums key (v + Option.value ~default:0 (Hashtbl.find_opt sums key))
          | None -> ())
      (Bess_obs.Registry.counters d);
    sums

  let get sums name = Option.value ~default:0 (Hashtbl.find_opt sums name)
end

(* ---- Outcomes and latencies --------------------------------------------- *)

type tally = {
  mutable attempts : int;
  mutable commits : int;
  fails : (string, int) Hashtbl.t; (* reason -> attempts that ended in it *)
  mutable lat : int array; (* committed txns, simulated ns *)
  mutable n_lat : int;
  mutable mismatches : int; (* reads that disagreed with the shadow *)
}

let tally () =
  { attempts = 0; commits = 0; fails = Hashtbl.create 8; lat = Array.make 1024 0;
    n_lat = 0; mismatches = 0 }

let committed t ~latency_ns =
  t.commits <- t.commits + 1;
  if t.n_lat = Array.length t.lat then begin
    let bigger = Array.make (2 * t.n_lat) 0 in
    Array.blit t.lat 0 bigger 0 t.n_lat;
    t.lat <- bigger
  end;
  t.lat.(t.n_lat) <- latency_ns;
  t.n_lat <- t.n_lat + 1

let failed t reason =
  Hashtbl.replace t.fails reason (1 + Option.value ~default:0 (Hashtbl.find_opt t.fails reason))

let n_failed t = Hashtbl.fold (fun _ n acc -> acc + n) t.fails 0

(* Name of an exception without its payload, for the failure breakdown. *)
let exn_name e =
  let s = Printexc.to_string e in
  match String.index_opt s '(' with
  | Some i -> String.trim (String.sub s 0 i)
  | None -> ( match String.index_opt s ' ' with Some i -> String.sub s 0 i | None -> s)

(* Nearest-rank percentile and the number of samples strictly above it. *)
let percentile t q =
  if t.n_lat = 0 then (0, 0)
  else begin
    let a = Array.sub t.lat 0 t.n_lat in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int t.n_lat)) in
    let v = a.(Stdlib.max 0 (Stdlib.min (t.n_lat - 1) (rank - 1))) in
    let above = ref 0 in
    Array.iter (fun x -> if x > v then incr above) a;
    (v, !above)
  end

(* Minimal JSON emission: numbers print with all their digits. *)
let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Bess_obs.Registry.json_string k ^ ":" ^ v) fields)
  ^ "}"

(* ---- Machine-speed calibration ------------------------------------------- *)

(* A fixed piece of work that uses no part of the storage manager: hash
   table inserts and lookups, boxed allocation, random reads over a few
   MB and a sort. run.py times it in processes of its own, interleaved
   with the workload's, and scales the workload's real-clock figures by
   it, so a machine that runs everything slower for a minute does not
   read as a slower program. Returns seconds. *)
let calibrate () =
  let t0 = wall_ns () in
  let st = Random.State.make [| 17 |] in
  let n = 1 lsl 15 in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (Random.State.bits st land (4 * n - 1)) (Bytes.make 32 (Char.chr (i land 255)))
  done;
  let keys = Array.init (2 * n) (fun _ -> Random.State.bits st land (4 * n - 1)) in
  let found = ref 0 in
  Array.iter (fun k -> match Hashtbl.find_opt h k with Some b -> found := !found + Bytes.length b | None -> ()) keys;
  Array.sort Int.compare keys;
  let l = List.rev (List.rev_map (fun k -> (k, k + 1)) (Array.to_list keys)) in
  ignore (Sys.opaque_identity (!found + List.length l));
  float_of_int (wall_ns () - t0) /. 1e9
