(* bessctl: command-line administration for file-backed BeSS databases.

     bessctl create  DIR [--areas N] [--page-size B]   create a database
     bessctl info    DIR                               catalog summary
     bessctl seed    DIR [--objects N]                 load a demo dataset
     bessctl scan    DIR --file NAME                   scan a file, print stats
     bessctl verify  DIR                               structural checks
     bessctl compact DIR                               compact every segment
     bessctl stats   DIR [--json|--prom]               live metrics registry
     bessctl trace   DIR [--spans] [--chrome FILE]     causal span timeline
     bessctl top     DIR [--passes N] [--json]         busiest metrics per window
     bessctl load    DIR [--workload W] [--clients N]  closed-loop load generator
     bessctl slow    DIR [--workload W] [--clients N]  slowest txns with blame breakdown
     bessctl mrc     DIR [--workload W] [--rate-bits B] online miss-ratio curve vs measured
     bessctl heat    DIR [--workload W] [--top K]      hottest pages, decayed frequencies
     bessctl flightrec FILE [--last N]                 replay a black-box dump

   Databases live in a directory: area_*.bess files, wal.log, and
   catalog.meta. *)

open Cmdliner

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory")

let with_db dir f =
  let db = Bess.Db.open_dir ~db_id:1 dir in
  Fun.protect ~finally:(fun () -> Bess.Db.close db) (fun () -> f db)

(* Every --json surface prints one rendered value on one line. *)
let print_json j = print_endline (Bess_obs.Json.render j)

(* ---- create ---- *)

let create_cmd =
  let areas = Arg.(value & opt int 1 & info [ "areas" ] ~doc:"Number of storage areas") in
  let page_size = Arg.(value & opt int 4096 & info [ "page-size" ] ~doc:"Page size in bytes") in
  let run dir areas page_size =
    let db = Bess.Db.create_dir ~page_size ~n_areas:areas ~db_id:1 dir in
    Bess.Db.close db;
    Printf.printf "created database in %s (%d areas, %dB pages)\n" dir areas page_size
  in
  Cmd.v (Cmd.info "create" ~doc:"Create a file-backed database")
    Term.(const run $ dir_arg $ areas $ page_size)

(* ---- info ---- *)

let info_cmd =
  let run dir =
    with_db dir (fun db ->
        let cat = Bess.Db.catalog db in
        Printf.printf "database %d (host %d)\n" (Bess.Catalog.db_id cat) (Bess.Catalog.host cat);
        Printf.printf "segments: %d\n" (Bess.Catalog.n_segments cat);
        List.iter
          (fun (f : Bess.Catalog.file_info) ->
            Printf.printf "  file %-16s id=%d area=%s segments=%d\n" f.file_name f.file_id
              (match f.area_id with Some a -> string_of_int a | None -> "multifile")
              (List.length f.seg_ids))
          (Bess.Catalog.files cat);
        List.iter
          (fun (name, oid) -> Fmt.pr "  root %-16s -> %a@." name Bess.Oid.pp oid)
          (Bess.Catalog.roots cat);
        List.iter
          (fun area_id ->
            let a = Bess_storage.Area_set.find (Bess.Db.areas db) area_id in
            Printf.printf "  area %d: %d/%d pages used, %d extents\n" area_id
              (Bess_storage.Area.capacity_pages a - Bess_storage.Area.free_pages a)
              (Bess_storage.Area.capacity_pages a)
              (Bess_storage.Area.n_extents a))
          (Bess.Db.area_ids db))
  in
  Cmd.v (Cmd.info "info" ~doc:"Show catalog and storage summary") Term.(const run $ dir_arg)

(* ---- seed ---- *)

let group_commit_arg =
  let policy_conv =
    let parse s =
      match Bess_wal.Group_commit.policy_of_string s with
      | Ok p -> Ok p
      | Error e -> Error (`Msg e)
    in
    Arg.conv (parse, Bess_wal.Group_commit.pp_policy)
  in
  Arg.(
    value
    & opt policy_conv Bess_wal.Group_commit.Immediate
    & info [ "group-commit" ] ~docv:"POLICY"
        ~doc:
          "Commit force-scheduling policy: $(b,immediate) (default), $(b,group:N) to coalesce N \
           committers per log force, or $(b,window:NS) to batch a time window")

let seed_cmd =
  let objects = Arg.(value & opt int 1000 & info [ "objects" ] ~doc:"Objects to create") in
  let run dir objects policy =
    with_db dir (fun db ->
        Bess.Server.set_group_policy (Bess.Db.server db) policy;
        let s = Bess.Db.session db in
        let ty =
          match Bess.Type_desc.find_by_name (Bess.Catalog.types (Bess.Db.catalog db)) "demo" with
          | Some ty -> ty
          | None ->
              Bess.Type_desc.register
                (Bess.Catalog.types (Bess.Db.catalog db))
                ~name:"demo" ~size:32 ~ref_offsets:[| 0 |]
        in
        Bess.Session.begin_txn s;
        let f =
          match Bess.Catalog.find_file_by_name (Bess.Db.catalog db) "demo" with
          | Some _ -> Bess.Bess_file.open_existing s ~name:"demo" ()
          | None -> Bess.Bess_file.create s ~name:"demo" ()
        in
        let prev = ref None in
        for i = 1 to objects do
          let o = Bess.Bess_file.new_object f ty ~size:32 in
          Bess_vmem.Vmem.write_i64 (Bess.Session.mem s) (Bess.Session.obj_data s o + 8) i;
          ignore i;
          (match !prev with
          | Some p -> Bess.Session.write_ref s ~data_addr:(Bess.Session.obj_data s p) (Some o)
          | None -> Bess.Session.set_root s ~name:"demo_head" o);
          prev := Some o
        done;
        Bess.Session.commit s;
        let wal = Bess_wal.Log.stats (Bess.Store.log (Bess.Server.store (Bess.Db.server db))) in
        Printf.printf "seeded %d demo objects into file %S (%s policy, %d log forces)\n" objects
          "demo"
          (Bess_wal.Group_commit.policy_to_string policy)
          (Bess_util.Stats.get wal "log.forces"))
  in
  Cmd.v (Cmd.info "seed" ~doc:"Load a linked demo dataset")
    Term.(const run $ dir_arg $ objects $ group_commit_arg)

(* ---- scan ---- *)

let scan_cmd =
  let fname = Arg.(value & opt string "demo" & info [ "file" ] ~doc:"BeSS file name") in
  let run dir fname =
    with_db dir (fun db ->
        let s = Bess.Db.session db in
        Bess.Session.begin_txn s;
        let f = Bess.Bess_file.open_existing s ~name:fname () in
        let n = ref 0 and bytes = ref 0 in
        Bess.Bess_file.iter f (fun o ->
            incr n;
            bytes := !bytes + Bess.Session.obj_size s o);
        Bess.Session.commit s;
        Printf.printf "file %S: %d objects, %d bytes of data, %d segments\n" fname !n !bytes
          (List.length (Bess.Bess_file.seg_ids f));
        let st = Bess.Session.stats s in
        Printf.printf "faults: %d slotted, %d data\n"
          (Bess_util.Stats.get st "session.slotted_faults")
          (Bess_util.Stats.get st "session.data_faults"))
  in
  Cmd.v (Cmd.info "scan" ~doc:"Scan a BeSS file") Term.(const run $ dir_arg $ fname)

(* ---- verify ---- *)

let verify_cmd =
  let run dir =
    with_db dir (fun db ->
        let s = Bess.Db.session db in
        Bess.Session.begin_txn s;
        let cat = Bess.Db.catalog db in
        let problems = ref 0 in
        List.iter
          (fun seg_id ->
            let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
            Bess.Session.ensure_slotted s seg;
            let n = Bess.Session.read_header_u32 s seg ~field:Bess.Layout.hdr_n_slots in
            let used = Bess.Session.read_header_u32 s seg ~field:Bess.Layout.hdr_data_used in
            let cap = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.npages * 4096 in
            if used > cap then begin
              incr problems;
              Printf.printf "  segment %d: data_used %d exceeds capacity %d\n" seg_id used cap
            end;
            for idx = 0 to n - 1 do
              let flags = Bess.Session.read_slot_u32 s seg idx ~field:Bess.Layout.slot_flags in
              if flags land Bess.Layout.flag_used <> 0 then begin
                let dp = Bess.Session.read_slot_i64 s seg idx ~field:Bess.Layout.slot_dp in
                let transparent =
                  flags land (Bess.Layout.flag_large lor Bess.Layout.flag_vlarge) <> 0
                in
                if (not transparent) && (dp < seg.Bess.Session.data_base || dp >= seg.Bess.Session.data_base + cap)
                then begin
                  incr problems;
                  Printf.printf "  segment %d slot %d: DP out of range\n" seg_id idx
                end
              end
            done)
          (Bess.Catalog.segment_ids cat);
        Bess.Session.commit s;
        if !problems = 0 then Printf.printf "ok: %d segments verified clean\n" (Bess.Catalog.n_segments cat)
        else Printf.printf "%d problems found\n" !problems)
  in
  Cmd.v (Cmd.info "verify" ~doc:"Structural integrity checks") Term.(const run $ dir_arg)

(* ---- stats ---- *)

let stats_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry snapshot as JSON") in
  let prom =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit the registry snapshot in Prometheus text exposition format")
  in
  let run dir json prom =
    with_db dir (fun db ->
        (* Touch every segment once so the snapshot reflects a full pass
           over the database, not an idle process. *)
        let s = Bess.Db.session db in
        Bess.Session.begin_txn s;
        List.iter
          (fun seg_id ->
            let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
            Bess.Session.ensure_slotted s seg)
          (Bess.Catalog.segment_ids (Bess.Db.catalog db));
        Bess.Session.commit s;
        let snap = Bess_obs.Registry.snapshot () in
        if prom then print_string (Bess_obs.Registry.prom_of_snapshot snap)
        else if json then print_json (Bess_obs.Registry.json_of_snapshot snap)
        else begin
          Fmt.pr "%a@." Bess_obs.Registry.pp_snapshot snap;
          match Bess.Event.trace (Bess.Session.hooks s) with
          | None -> ()
          | Some tr ->
              let entries = Bess_obs.Trace.to_list tr in
              let n = List.length entries in
              let tail k l =
                let rec drop i = function
                  | _ :: rest when i > 0 -> drop (i - 1) rest
                  | l -> l
                in
                drop (Stdlib.max 0 (List.length l - k)) l
              in
              Fmt.pr "@.trace (%d events recorded, last %d):@." n (Stdlib.min n 10);
              List.iter (fun e -> Fmt.pr "  %a@." Bess_obs.Trace.pp_entry e) (tail 10 entries)
        end)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print the live metrics registry (counters, histograms, trace tail)")
    Term.(const run $ dir_arg $ json $ prom)

(* ---- trace ---- *)

let trace_cmd =
  let spans =
    Arg.(value & flag & info [ "spans" ] ~doc:"Print the slowest transaction's span tree")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Write the collected spans as Chrome trace_event JSON to $(docv)")
  in
  let run dir spans chrome =
    let c = Bess_obs.Span.create () in
    Bess_obs.Span.install (Some c);
    Fun.protect ~finally:(fun () -> Bess_obs.Span.install None) (fun () ->
        with_db dir (fun db ->
            (* One traced transaction touching every segment: the same
               full pass `bessctl stats` makes, but timed on the span
               clock instead of counted. *)
            let s = Bess.Db.session db in
            Bess.Session.begin_txn s;
            List.iter
              (fun seg_id ->
                let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
                Bess.Session.ensure_slotted s seg)
              (Bess.Catalog.segment_ids (Bess.Db.catalog db));
            Bess.Session.commit s);
        Bess_obs.Span.finish_all c;
        (match chrome with
        | Some path ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (Bess_obs.Json.render (Bess_obs.Span.to_chrome_json c) ^ "\n"));
            Printf.printf "wrote %d spans to %s\n" (List.length (Bess_obs.Span.to_list c)) path
        | None -> ());
        if spans || chrome = None then
          match Bess_obs.Span.slowest c with
          | Some root -> Fmt.pr "%a@." (Bess_obs.Span.pp_tree c) root
          | None -> Printf.printf "no spans collected\n")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace one full pass over the database as a causal span timeline")
    Term.(const run $ dir_arg $ spans $ chrome)

(* ---- windowed-rate reporting (shared by top and load) ---- *)

let print_window_report ?(json = false) samples ~limit =
  match samples with
  | _ when json ->
      print_json
        Bess_obs.Json.(Obj [ ("windows", Arr (List.map Bess_obs.Series.json_of_sample samples)) ])
  | [] -> Printf.printf "no windows sampled (no simulated time elapsed)\n"
  | _ ->
      let total_width =
        List.fold_left (fun acc s -> acc + (s.Bess_obs.Series.w_end_ns - s.w_start_ns))
          0 samples
      in
      let totals : (string, int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (s : Bess_obs.Series.sample) ->
          List.iter
            (fun (name, d) ->
              Hashtbl.replace totals name
                (d + Option.value ~default:0 (Hashtbl.find_opt totals name)))
            s.w_counters)
        samples;
      let last = List.nth samples (List.length samples - 1) in
      let rows =
        Hashtbl.fold (fun name total acc -> (name, total) :: acc) totals []
        |> List.filter (fun (_, total) -> total <> 0)
        |> List.sort (fun (na, a) (nb, b) ->
               match compare b a with 0 -> compare na nb | c -> c)
      in
      let shown = List.filteri (fun i _ -> i < limit) rows in
      Printf.printf "  %-36s %12s %12s %10s\n" "COUNTER" "TOTAL" "RATE/s" "LAST/s";
      List.iter
        (fun (name, total) ->
          let avg = float_of_int total *. 1e9 /. float_of_int total_width in
          let last_rate =
            Option.value ~default:0.0 (Bess_obs.Series.sample_rate last name)
          in
          Printf.printf "  %-36s %12d %12.0f %10.0f\n" name total avg last_rate)
        shown;
      if List.length rows > limit then
        Printf.printf "  ... %d more counters (raise --top)\n" (List.length rows - limit);
      (match last.w_gauges with
      | [] -> ()
      | gauges ->
          Printf.printf "  %-36s %12s\n" "GAUGE" "VALUE";
          List.iter
            (fun (name, v) -> Printf.printf "  %-36s %12d\n" name v)
            gauges);
      (match last.w_tails with
      | [] -> ()
      | tails ->
          Printf.printf "  %-36s %8s %10s %10s %10s %10s\n" "LAST-WINDOW TAIL" "COUNT" "p50"
            "p95" "p99" "p999";
          List.iter
            (fun (name, (t : Bess_obs.Series.tail)) ->
              Printf.printf "  %-36s %8d %10d %10d %10d %10d\n" name t.t_count t.t_p50
                t.t_p95 t.t_p99 t.t_p999)
            tails)

(* ---- top ---- *)

let top_cmd =
  let passes =
    Arg.(value & opt int 5 & info [ "passes" ] ~doc:"Full-database passes to sample")
  in
  let window_us =
    Arg.(value & opt int 100
         & info [ "window-us" ] ~docv:"US" ~doc:"Sampling window in simulated microseconds")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Counters to show (busiest first)")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the sampled windows as JSON")
  in
  let run dir passes window_us limit json =
    let series =
      Bess_obs.Series.create ~capacity:4096 ~window_ns:(Stdlib.max 1 window_us * 1000) ()
    in
    Bess_obs.Series.install (Some series);
    Fun.protect ~finally:(fun () -> Bess_obs.Series.install None) (fun () ->
        with_db dir (fun db ->
            (* The same full pass [bessctl stats] makes, repeated with the
               cache dropped in between so every pass does real work. *)
            let s = Bess.Db.session db in
            for _ = 1 to passes do
              Bess.Session.begin_txn s;
              List.iter
                (fun seg_id ->
                  let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
                  Bess.Session.ensure_slotted s seg)
                (Bess.Catalog.segment_ids (Bess.Db.catalog db));
              Bess.Session.commit s;
              Bess.Session.drop_all_cached s
            done);
        Bess_obs.Series.flush series;
        let samples = Bess_obs.Series.to_list series in
        if not json then
          Printf.printf "top: %d windows of >=%dus simulated time, %d passes\n"
            (List.length samples) window_us passes;
        print_window_report ~json samples ~limit)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Sample repeated database passes into per-window rates and show the busiest metrics")
    Term.(const run $ dir_arg $ passes $ window_us $ limit $ json_arg)

(* ---- load ---- *)

(* Closed-loop load generator: N simulated clients on the discrete-event
   scheduler run a named workload against the database, and the same
   windowed-rate report [bessctl top] uses shows where the time went. *)

(* Working set for the load drivers: committed data pages in 128-page
   segments (extents cap contiguous allocation). *)
let seed_working_set db pages =
  let s = Bess.Db.session db in
  Bess.Session.begin_txn s;
  let acc = ref [] in
  let remaining = ref (Stdlib.max 1 pages) in
  while !remaining > 0 do
    let n = Stdlib.min 128 !remaining in
    let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:n () in
    let d = seg.Bess.Session.data_disk in
    for i = 0 to n - 1 do
      acc :=
        { Bess_cache.Page_id.area = d.Bess_storage.Seg_addr.area;
          page = d.Bess_storage.Seg_addr.first_page + i }
        :: !acc
    done;
    remaining := !remaining - n
  done;
  Bess.Session.commit s;
  Bess.Session.drop_all_cached s;
  Array.of_list (List.rev !acc)

let load_workloads =
  [
    ("uniform", fun c -> { c with Bess_sched.Driver.zipf_theta = 0.0 });
    ("zipf", fun c -> { c with Bess_sched.Driver.zipf_theta = 0.8 });
    ( "hotspot",
      fun c ->
        { c with Bess_sched.Driver.zipf_theta = 0.8; hot_fraction = 0.1; hot_pages = 8 } );
    ( "churn",
      fun c ->
        { c with
          Bess_sched.Driver.zipf_theta = 0.8;
          hot_fraction = 0.1;
          hot_pages = 8;
          churn = 0.005;
        } );
  ]

(* Shared by load, slow, mrc and heat: the named closed-loop workload's
   flags, and the setup that opens the db, seeds the working set and
   builds the workload's driver config. *)
let workload_arg =
  Arg.(value & opt string "zipf"
       & info [ "workload" ] ~docv:"NAME"
           ~doc:
             "Named workload: $(b,uniform), $(b,zipf), $(b,hotspot) (zipf plus a hot set) \
              or $(b,churn) (hotspot plus session churn)")

let clients_arg = Arg.(value & opt int 100 & info [ "clients" ] ~docv:"N" ~doc:"Simulated clients")
let txns_arg = Arg.(value & opt int 50 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per client")

let pages_arg =
  Arg.(value & opt int 1024 & info [ "pages" ] ~docv:"N" ~doc:"Working-set pages to seed")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed")

let with_workload dir ~workload ~clients ~txns ~pages ~seed f =
  match List.assoc_opt workload load_workloads with
  | None ->
      Printf.eprintf "bad --workload %S (try uniform, zipf, hotspot, churn)\n" workload;
      exit 2
  | Some shape ->
      with_db dir (fun db ->
          let server = Bess.Db.server db in
          Bess.Server.set_detection server `Timeout;
          let page_ids = seed_working_set db pages in
          f server page_ids
            (shape
               { Bess_sched.Driver.default with
                 n_clients = clients;
                 txns_per_client = txns;
                 seed;
               }))

let load_cmd =
  let window_us =
    Arg.(value & opt int 1000
         & info [ "window-us" ] ~docv:"US" ~doc:"Sampling window in simulated microseconds")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Counters to show (busiest first)")
  in
  let run dir workload clients txns pages seed window_us limit =
    let series =
      Bess_obs.Series.create ~capacity:4096 ~window_ns:(Stdlib.max 1 window_us * 1000) ()
    in
    with_workload dir ~workload ~clients ~txns ~pages ~seed (fun server page_ids cfg ->
        Bess_obs.Series.install (Some series);
        let r =
          Fun.protect
            ~finally:(fun () -> Bess_obs.Series.install None)
            (fun () -> Bess_sched.Driver.run server ~pages:page_ids cfg)
        in
        Bess_obs.Series.flush series;
        let samples = Bess_obs.Series.to_list series in
        Printf.printf "load: %S, %d clients x %d txns over %d pages, seed %d\n" workload
          clients txns (Array.length page_ids) seed;
        Printf.printf
          "  commits %d  aborts %d  give-ups %d  indeterminate %d  churns %d\n"
          r.Bess_sched.Driver.r_commits r.r_aborts r.r_give_ups r.r_indeterminate
          r.r_disconnects;
        Printf.printf "  %.1f ms simulated, %.0f commits/s, commit p50 %.1fus p99 %.1fus\n"
          (float_of_int r.r_sim_ns /. 1e6)
          (Bess_sched.Driver.throughput r)
          (float_of_int r.r_commit_p50_ns /. 1e3)
          (float_of_int r.r_commit_p99_ns /. 1e3);
        Printf.printf "  %d windows of >=%dus simulated time\n" (List.length samples)
          window_us;
        print_window_report samples ~limit)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Run a named closed-loop workload at a given client count on the event scheduler \
          and report windowed rates")
    Term.(const run $ dir_arg $ workload_arg $ clients_arg $ txns_arg $ pages_arg $ seed_arg
          $ window_us $ limit)

(* ---- slow ---- *)

(* Tail-latency attribution: run the same closed-loop workload [bessctl
   load] runs, but with span tracing and the critical-path sink
   installed, and report where the slowest transactions spent their
   time, phase by phase. *)

let slow_cmd =
  let top_k =
    Arg.(value & opt int 10
         & info [ "slowest" ] ~docv:"K" ~doc:"Slowest transactions to capture and print")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the slow-transaction reservoir as JSON")
  in
  let run dir workload clients txns pages seed top_k json =
    with_workload dir ~workload ~clients ~txns ~pages ~seed (fun server page_ids cfg ->
        let coll = Bess_obs.Span.create () in
        let cp = Bess_obs.Critpath.create ~top_k () in
        Bess_obs.Span.install (Some coll);
        Bess_obs.Critpath.install (Some cp);
        let r =
          Fun.protect
            ~finally:(fun () ->
              Bess_obs.Critpath.install None;
              Bess_obs.Span.install None)
            (fun () -> Bess_sched.Driver.run server ~pages:page_ids cfg)
        in
        if json then print_json (Bess_obs.Critpath.json_of_slow cp)
        else begin
          Printf.printf "slow: %S, %d clients x %d txns over %d pages, seed %d\n" workload
            clients txns (Array.length page_ids) seed;
          Printf.printf "  commits %d  aborts %d  give-ups %d  indeterminate %d\n"
            r.Bess_sched.Driver.r_commits r.r_aborts r.r_give_ups r.r_indeterminate;
          let total = Bess_obs.Critpath.total_ns cp in
          Printf.printf "  %d transactions attributed, %.1f ms total\n"
            (Bess_obs.Critpath.txns cp)
            (float_of_int total /. 1e6);
          Printf.printf "  %-10s %14s %7s\n" "PHASE" "TOTAL-NS" "SHARE";
          List.iter
            (fun (name, ns) ->
              if ns > 0 then
                Printf.printf "  %-10s %14d %6.1f%%\n" name ns
                  (100.0 *. float_of_int ns /. float_of_int (Stdlib.max 1 total)))
            (Bess_obs.Critpath.blame_totals cp);
          let slow = Bess_obs.Critpath.slow cp in
          Printf.printf "slowest %d transactions:\n" (List.length slow);
          List.iteri
            (fun i (st : Bess_obs.Critpath.slow_txn) ->
              let b = st.st_blame in
              let root = st.st_root in
              let outcome =
                Option.value ~default:"?" (List.assoc_opt "outcome" root.attrs)
              in
              let parts =
                List.concat
                  (List.mapi
                     (fun j p ->
                       let ns = b.b_phase_ns.(j) in
                       if ns > 0 then
                         [ Printf.sprintf "%s %dns" (Bess_obs.Critpath.phase_name p) ns ]
                       else [])
                     Bess_obs.Critpath.phases)
              in
              Printf.printf "  #%-2d span %-6d %8dns %-13s %d spans %d faults | %s\n"
                (i + 1) root.id b.b_total_ns outcome
                (List.length st.st_spans)
                (List.length st.st_faults)
                (String.concat ", " parts))
            slow
        end)
  in
  Cmd.v
    (Cmd.info "slow"
       ~doc:
         "Run a closed-loop workload with critical-path attribution installed and print the \
          slowest transactions' phase-by-phase blame breakdown")
    Term.(const run $ dir_arg $ workload_arg $ clients_arg $ txns_arg $ pages_arg $ seed_arg
          $ top_k $ json_arg)

(* ---- mrc / heat: the memory X-ray ---- *)

(* Shared runner: install the X-ray on the server's page cache AFTER
   seeding (so the sketches see the workload, not the loader), drive the
   named workload, and hand the sketches plus the workload-only hit/miss
   deltas to the reporter. *)
let run_xray dir ~workload ~clients ~txns ~pages ~seed ~rate_bits ~heat_window_us f =
  with_workload dir ~workload ~clients ~txns ~pages ~seed (fun server page_ids cfg ->
      let cache = Bess.Store.cache (Bess.Server.store server) in
      let stats = Bess_cache.Cache.stats cache in
      let h0 = Bess_util.Stats.get stats "cache.hits" in
      let m0 = Bess_util.Stats.get stats "cache.misses" in
      let memx =
        Bess_cache.Memx.install ~rate_bits
          ~heat_window_ns:(Stdlib.max 1 heat_window_us * 1000)
          cache
      in
      Fun.protect
        ~finally:(fun () -> Bess_cache.Memx.uninstall memx)
        (fun () ->
          let r = Bess_sched.Driver.run server ~pages:page_ids cfg in
          let dh = Bess_util.Stats.get stats "cache.hits" - h0 in
          let dm = Bess_util.Stats.get stats "cache.misses" - m0 in
          let measured =
            if dh + dm = 0 then 0.0 else float_of_int dh /. float_of_int (dh + dm)
          in
          f ~cache ~memx ~result:r ~measured ~n_pages:(Array.length page_ids)))

let xray_json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the sketch as deterministic JSON")

let mrc_cmd =
  let rate_bits =
    Arg.(value & opt int 4
         & info [ "rate-bits" ] ~docv:"B"
             ~doc:"SHARDS spatial sampling rate 2^-B (0 = track every access)")
  in
  let run dir workload clients txns pages seed rate_bits json =
    run_xray dir ~workload ~clients ~txns ~pages ~seed ~rate_bits ~heat_window_us:1000
      (fun ~cache ~memx ~result:r ~measured ~n_pages ->
        let mrc = Bess_cache.Memx.mrc memx in
        if json then print_json (Bess_cache.Memx.json_of_mrc memx)
        else begin
          Printf.printf "mrc: %S, %d clients x %d txns over %d pages, seed %d, rate 1/%d\n"
            workload clients txns n_pages seed (1 lsl rate_bits);
          Printf.printf "  commits %d  aborts %d  accesses %d  sampled %d  tracked keys %d\n"
            r.Bess_sched.Driver.r_commits r.r_aborts (Bess_obs.Mrc.n_total mrc)
            (Bess_obs.Mrc.n_sampled mrc) (Bess_obs.Mrc.tracked_keys mrc);
          Printf.printf "  %8s  %9s\n" "SIZE" "PREDICTED";
          let max_size =
            let rec up s = if s >= 2 * n_pages then s else up (2 * s) in
            up 1
          in
          List.iter
            (fun (size, rate) ->
              if size >= 8 then Printf.printf "  %8d  %8.1f%%\n" size (100.0 *. rate))
            (Bess_obs.Mrc.curve mrc ~max_size);
          let nslots = Bess_cache.Cache.nslots cache in
          let predicted = Bess_cache.Memx.predicted_hit_rate memx in
          Printf.printf
            "  configured cache %d slots: predicted %.1f%%, measured %.1f%% (delta %.1f points)\n"
            nslots (100.0 *. predicted) (100.0 *. measured)
            (100.0 *. abs_float (predicted -. measured))
        end)
  in
  Cmd.v
    (Cmd.info "mrc"
       ~doc:
         "Run a closed-loop workload with the SHARDS miss-ratio-curve sampler installed and \
          print the predicted hit rate at every power-of-two cache size against the measured \
          rate at the configured size")
    Term.(const run $ dir_arg $ workload_arg $ clients_arg $ txns_arg $ pages_arg
          $ seed_arg $ rate_bits $ xray_json)

let heat_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Hottest pages to print")
  in
  let window_us =
    Arg.(value & opt int 1000
         & info [ "window-us" ] ~docv:"US"
             ~doc:"Decay window in simulated microseconds (frequencies halve once per window)")
  in
  let run dir workload clients txns pages seed top window_us json =
    run_xray dir ~workload ~clients ~txns ~pages ~seed ~rate_bits:4 ~heat_window_us:window_us
      (fun ~cache:_ ~memx ~result:r ~measured ~n_pages ->
        let heat = Bess_cache.Memx.heat memx in
        if json then print_json (Bess_cache.Memx.json_of_heat ~k:top memx)
        else begin
          Printf.printf "heat: %S, %d clients x %d txns over %d pages, seed %d\n" workload
            clients txns n_pages seed;
          Printf.printf
            "  commits %d  aborts %d  accesses %d  tracked pages %d  decays %d  hit %.1f%%\n"
            r.Bess_sched.Driver.r_commits r.r_aborts (Bess_obs.Heat.n_total heat)
            (Bess_obs.Heat.tracked_keys heat) (Bess_obs.Heat.n_decays heat)
            (100.0 *. measured);
          Printf.printf "  %-12s %8s %14s\n" "PAGE" "FREQ" "LAST-NS";
          List.iter
            (fun (page, freq, last_ns) ->
              Printf.printf "  %-12s %8d %14d\n"
                (Fmt.str "%a" Bess_cache.Page_id.pp page)
                freq last_ns)
            (Bess_cache.Memx.top_pages memx top)
        end)
  in
  Cmd.v
    (Cmd.info "heat"
       ~doc:
         "Run a closed-loop workload with the decayed page-heat sketch installed and print \
          the hottest pages")
    Term.(const run $ dir_arg $ workload_arg $ clients_arg $ txns_arg $ pages_arg
          $ seed_arg $ top_arg $ window_us $ xray_json)

(* ---- flightrec ---- *)

let flightrec_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Flight-recorder dump (flightrec-*.json)")
  in
  let last =
    Arg.(value & opt int 40 & info [ "last" ] ~docv:"N" ~doc:"Timeline items to print")
  in
  let run file last =
    match Bess_obs.Flightrec.load file with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        exit 2
    | Ok j ->
        let module J = Bess_obs.Json in
        Printf.printf "flight recorder dump %s\n" file;
        Printf.printf "  reason:    %s\n" (J.get_string ~default:"?" j "reason");
        Printf.printf "  wall time: %s\n" (J.get_string ~default:"?" j "wall_time");
        Printf.printf "  sim clock: %dns\n" (J.get_int j "sim_now_ns");
        let items = Bess_obs.Flightrec.replay j in
        let spans, faults =
          List.fold_left
            (fun (s, f) -> function
              | Bess_obs.Flightrec.Span_item _ -> (s + 1, f)
              | Bess_obs.Flightrec.Fault_item _ -> (s, f + 1))
            (0, 0) items
        in
        Printf.printf "  timeline:  %d spans, %d fault firings\n" spans faults;
        let n = List.length items in
        let tail =
          let rec drop i = function _ :: rest when i > 0 -> drop (i - 1) rest | l -> l in
          drop (Stdlib.max 0 (n - last)) items
        in
        if n > List.length tail then
          Printf.printf "  ... %d earlier items elided (raise --last)\n" (n - List.length tail);
        List.iter (fun item -> Fmt.pr "  %a@." Bess_obs.Flightrec.pp_item item) tail;
        (match J.member "series" j with
        | Some series ->
            let samples = J.get_list series "samples" in
            if samples <> [] then
              Printf.printf "  series: %d windows of %dns recorded\n" (List.length samples)
                (J.get_int series "window_ns")
        | None -> ())
  in
  Cmd.v
    (Cmd.info "flightrec"
       ~doc:"Replay a black-box flight-recorder dump: spans and fault firings interleaved")
    Term.(const run $ file_arg $ last)

(* ---- compact ---- *)

let compact_cmd =
  let run dir =
    with_db dir (fun db ->
        let s = Bess.Db.session db in
        let total = ref 0 in
        List.iter
          (fun seg_id ->
            let seg = Bess.Session.get_seg s ~db_id:(Bess.Db.db_id db) ~seg_id in
            total := !total + Bess.Reorg.compact_data_segment s seg)
          (Bess.Catalog.segment_ids (Bess.Db.catalog db));
        Printf.printf "compacted all segments: %d bytes reclaimed (0 references fixed)\n" !total)
  in
  Cmd.v (Cmd.info "compact" ~doc:"Compact every data segment on the fly") Term.(const run $ dir_arg)

(* ---- chaos ---- *)

let chaos_cmd =
  let module Fault = Bess_fault.Fault in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Master fault seed: the same seed replays the exact same fault schedule")
  in
  let profile_arg =
    Arg.(value & opt string "chaos"
         & info [ "fault-profile" ] ~docv:"PROFILE"
             ~doc:
               "Named fault profile ($(b,off), $(b,flaky-net), $(b,flaky-disk), $(b,chaos)) \
                or an explicit $(i,site=policy) list, e.g. \
                $(b,net.drop_reply=prob:0.05,wal.force.torn=every:7)")
  in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent remote clients")
  in
  let rounds_arg =
    Arg.(value & opt int 8 & info [ "rounds" ] ~doc:"Commit rounds per client")
  in
  let flightrec_arg =
    Arg.(value & opt (some string) None
         & info [ "flightrec" ] ~docv:"DIR"
             ~doc:
               "Directory for black-box flight-recorder dumps (defaults to the database \
                directory); one is written on crash, recovery and chaos failure")
  in
  let run dir seed profile n_clients rounds flightrec_dir =
    match Fault.profile_of_string profile with
    | Error e ->
        Printf.eprintf "bad --fault-profile %S: %s\n" profile e;
        exit 2
    | Ok sites ->
        (* Black box: arm the flight recorder and collect spans so the
           dumps written on crash/recovery/failure carry a real
           timeline — and the critical-path sink, so each dump also
           carries the slowest transactions whole (aux_slow_txns). *)
        let frdir = Option.value ~default:dir flightrec_dir in
        Bess_obs.Flightrec.arm ~dir:frdir ();
        let coll = Bess_obs.Span.create () in
        Bess_obs.Span.install (Some coll);
        Bess_obs.Critpath.install (Some (Bess_obs.Critpath.create ~top_k:8 ()));
        Fun.protect ~finally:(fun () ->
            Bess_obs.Critpath.install None;
            Bess_obs.Span.install None;
            Bess_obs.Flightrec.disarm ())
        @@ fun () ->
        with_db dir (fun db ->
            let server = Bess.Db.server db in
            Bess.Server.set_group_policy server (Bess_wal.Group_commit.Group_n 2);
            (* A scratch segment so the torture never touches user data. *)
            let s = Bess.Db.session db in
            Bess.Session.begin_txn s;
            let seg = Bess.Session.create_segment s ~slotted_pages:1 ~data_pages:1 () in
            Bess.Session.commit s;
            Bess.Session.drop_all_cached s;
            let page =
              { Bess_cache.Page_id.area = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.area;
                page = seg.Bess.Session.data_disk.Bess_storage.Seg_addr.first_page }
            in
            let net = Bess.Remote.network () in
            Bess.Remote.serve net server;
            let fetchers =
              Array.init n_clients (fun i ->
                  Bess.Remote.fetcher net ~client_id:(4000 + i) ~server_id:(Bess.Db.db_id db))
            in
            Fun.protect ~finally:Fault.reset @@ fun () ->
            Fault.seed seed;
            Fault.apply_profile sites;
            let acked = Array.make n_clients 0 in
            let maybes = Array.make n_clients [] in
            let acked_n = ref 0 and maybe_n = ref 0 in
            for round = 1 to rounds do
              for i = 0 to n_clients - 1 do
                let f = fetchers.(i) in
                let v = (seed * 1000) + (i * 100) + round in
                match f.Bess.Fetcher.f_begin () with
                | exception _ -> ()
                | txn -> (
                    match
                      let bytes =
                        f.Bess.Fetcher.f_fetch_page ~txn page ~mode:Bess_lock.Lock_mode.X
                      in
                      let after = Bytes.create 8 in
                      Bess_util.Codec.set_i64 after 0 v;
                      ({ Bess.Server.page; offset = i * 8;
                         before = Bytes.sub bytes (i * 8) 8; after }
                        : Bess.Server.update)
                    with
                    | exception _ -> ( try f.Bess.Fetcher.f_abort ~txn with _ -> ())
                    | u -> (
                        match f.Bess.Fetcher.f_commit_begin ~txn [ u ] with
                        | barrier -> (
                            match barrier () with
                            | () ->
                                incr acked_n;
                                acked.(i) <- v;
                                maybes.(i) <- []
                            | exception _ ->
                                incr maybe_n;
                                maybes.(i) <- v :: maybes.(i))
                        | exception _ ->
                            incr maybe_n;
                            maybes.(i) <- v :: maybes.(i);
                            (try f.Bess.Fetcher.f_abort ~txn with _ -> ())))
              done
            done;
            let leaked = Bess_lock.Lock_mgr.n_locks (Bess.Server.locks server) in
            Printf.printf "chaos: profile %S, seed %d, %d clients x %d rounds\n" profile seed
              n_clients rounds;
            Printf.printf "  acked %d, indeterminate %d, client retries %d, dup replays %d\n"
              !acked_n !maybe_n
              (Bess_util.Stats.get (Bess_net.Net.stats net) "net.client_retries")
              (Bess_util.Stats.get (Bess.Server.stats server) "server.dup_replays");
            Printf.printf "fault counters:\n";
            List.iter
              (fun (name, v) -> Printf.printf "  %-32s %d\n" name v)
              (Bess_util.Stats.to_list (Fault.stats ()));
            List.iter
              (fun (site, _) ->
                match Fault.schedule site with
                | [] -> ()
                | ords ->
                    Printf.printf "  schedule %-23s %s\n" site
                      (String.concat "+" (List.map string_of_int ords)))
              (Fault.configured ());
            (* Black-box the faulted phase now: [Fault.reset] clears the
               firing ring, and the recovery drill below runs fault-free. *)
            (match Bess_obs.Flightrec.dump ~reason:"chaos-workload" () with
            | Some path -> Printf.printf "flight recorder: %s\n" path
            | None -> ());
            (* Disarm, then the recovery drill: every acked value must
               survive the crash. *)
            Fault.reset ();
            Bess.Server.crash server;
            ignore (Bess.Server.recover server);
            let bytes = Bess.Server.read_page server page in
            let violations = ref 0 in
            for i = 0 to n_clients - 1 do
              let v = Bess_util.Codec.get_i64 bytes (i * 8) in
              if not (List.mem v (acked.(i) :: maybes.(i))) then begin
                incr violations;
                Printf.printf "  VIOLATION: slot %d recovered %d, last ack %d\n" i v acked.(i)
              end
            done;
            if !violations = 0 && leaked = 0 then begin
              Printf.printf "verdict: OK -- all acked commits survived recovery, no locks leaked\n";
              Printf.printf "flight recorder: crash/recovery dumps in %s (bessctl flightrec)\n"
                frdir
            end
            else begin
              (match Bess_obs.Flightrec.dump ~reason:"chaos-failure" () with
              | Some path -> Printf.printf "flight recorder: %s\n" path
              | None -> ());
              Printf.printf "verdict: FAILED (%d violations, %d leaked locks)\n" !violations
                leaked;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay a deterministic fault profile against a multi-client commit workload, then \
          crash, recover and verify every acked commit survived")
    Term.(const run $ dir_arg $ seed_arg $ profile_arg $ clients_arg $ rounds_arg
          $ flightrec_arg)

let shard_cmd =
  let module Fault = Bess_fault.Fault in
  let module Shard = Bess_shard.Shard in
  let module Driver = Bess_sched.Driver in
  let module Twopc = Bess_shard.Twopc in
  let shards_arg =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"N" ~doc:"Shard servers in the in-process ring")
  in
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Closed-loop clients in the fleet")
  in
  let txns_arg =
    Arg.(value & opt int 25 & info [ "txns" ] ~doc:"Transactions per client")
  in
  let cross_arg =
    Arg.(value & opt float 0.2
         & info [ "cross" ] ~docv:"FRAC"
             ~doc:"Probability a transaction spans two shards (two-phase commit)")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ]
             ~doc:"Workload seed: the same seed replays the same fleet byte-for-byte")
  in
  let profile_arg =
    Arg.(value & opt string "off"
         & info [ "fault-profile" ] ~docv:"PROFILE"
             ~doc:
               "Named fault profile ($(b,off), $(b,flaky-net), $(b,chaos-2pc), ...) or an \
                explicit $(i,site=policy) list; $(b,chaos-2pc) adds coordinator and \
                prepared-participant crashes to the message faults")
  in
  let run n_shards n_clients txns cross seed profile =
    match Fault.profile_of_string profile with
    | Error e ->
        Printf.eprintf "bad --fault-profile %S: %s\n" profile e;
        exit 2
    | Ok sites ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        let sh = Shard.create ~n:n_shards ~pages_per_shard:64 () in
        if sites <> [] then begin
          Fault.seed seed;
          Fault.apply_profile sites
        end;
        let cfg =
          { Driver.default with n_clients; txns_per_client = txns; zipf_theta = 0.8; seed }
        in
        let { Shard.driver = r; cross_commits; fingerprint } =
          Shard.run sh ~cross_fraction:cross cfg
        in
        let schedules =
          List.filter_map
            (fun (site, _) ->
              match Fault.schedule site with [] -> None | ords -> Some (site, ords))
            (Fault.configured ())
        in
        (* Quiesce exactly like a restart would: disarm faults, re-drive
           unacked commit decisions, resolve the prepared stragglers by
           coordinator query (absent decision = presumed abort). *)
        Fault.reset ();
        let unacked = Twopc.redrive (Shard.coord sh) in
        let resolved, unresolved = Shard.resolve_in_doubt sh in
        Printf.printf "shard: %d shards, %d clients x %d txns, cross %.2f, seed %d, profile %S\n"
          n_shards n_clients txns cross seed profile;
        Printf.printf
          "  commits %d (cross-shard %d), aborts %d, give-ups %d, indeterminate %d\n"
          r.Driver.r_commits cross_commits r.r_aborts r.r_give_ups r.r_indeterminate;
        Printf.printf "  throughput %.0f commits/s simulated, %d events, %.1f msgs/commit\n"
          (Driver.throughput r) r.r_events
          (if r.r_commits = 0 then 0.0
           else
             float_of_int (Bess_net.Net.messages (Shard.net sh)) /. float_of_int r.r_commits);
        Printf.printf "  fingerprint %s\n" fingerprint;
        Printf.printf "2pc counters:\n";
        List.iter
          (fun (name, v) -> Printf.printf "  %-28s %d\n" name v)
          (Bess_util.Stats.to_list (Twopc.stats (Shard.coord sh)));
        if schedules <> [] then begin
          Printf.printf "fault schedules:\n";
          List.iter
            (fun (site, ords) ->
              Printf.printf "  %-28s %s\n" site
                (String.concat "+" (List.map string_of_int ords)))
            schedules
        end;
        let leaked = Shard.locks_held sh in
        let in_doubt = Shard.in_doubt sh in
        Printf.printf "quiesce: %d redriven-unacked, %d resolved by query, %d unresolved, \
                       %d locks held, %d in doubt\n"
          unacked resolved unresolved leaked in_doubt;
        if leaked = 0 && in_doubt = 0 && unresolved = 0 then
          Printf.printf "verdict: OK -- ring quiesced, nothing locked or in doubt\n"
        else begin
          Printf.printf "verdict: FAILED (%d locks, %d in doubt, %d unresolved)\n" leaked
            in_doubt unresolved;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run a closed-loop cross-shard workload against N in-process shards committing \
          through presumed-abort two-phase commit, then print the 2pc counter plane")
    Term.(const run $ shards_arg $ clients_arg $ txns_arg $ cross_arg $ seed_arg
          $ profile_arg)

let () =
  let doc = "administer BeSS storage-manager databases" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "bessctl" ~doc)
          [ create_cmd; info_cmd; seed_cmd; scan_cmd; verify_cmd; compact_cmd; stats_cmd;
            trace_cmd; top_cmd; load_cmd; slow_cmd; mrc_cmd; heat_cmd; flightrec_cmd;
            chaos_cmd; shard_cmd ]))
