(* One benchmark run of one workload: set up, measure, verify, and print
   one JSON line of raw results for run.py.

     perfbench.exe --workload oltp_contended|nav_spill|shard_2pc --seed N
                   [--scale full|tiny] [--mode plain|timed|critpath]
                   [--inject] [--spans FILE]
     perfbench.exe --calibrate N

   Modes: [plain] measures with every observer off (the end-to-end
   figures); [timed] brackets each public layer call with the monotonic
   clock and logs a span per call (the per-layer real-clock figures;
   [--spans] writes the span log as CSV); [critpath] installs the span
   collector and the critical-path sink for the simulated wait shares.
   The span collector advances the simulated clock by one ns per span
   edge, so critpath runs are not compared with the other two.
   [--inject] corrupts one shadow value before verification: the run
   must then report [correct: false]. [--calibrate N] only times the
   machine-speed calibration kernel, N times. *)

open Common

type runner = {
  measure : seed:int -> tally * int;
  verify : inject:bool -> (string * bool * string) list * string;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload oltp_contended|nav_spill|shard_2pc --seed N [--scale full|tiny] \
     [--mode plain|timed|critpath] [--inject] [--spans FILE]\n       perfbench.exe --calibrate N";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and scale = ref "full" and mode = ref "plain" in
  let inject = ref false and spans = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (match int_of_string_opt v with Some n -> seed := n | None -> usage ()); parse rest
    | "--scale" :: v :: rest -> scale := v; parse rest
    | "--mode" :: v :: rest -> mode := v; parse rest
    | "--inject" :: rest -> inject := true; parse rest
    | "--spans" :: v :: rest -> spans := v; parse rest
    | [ "--calibrate"; n ] ->
        let n = Option.value ~default:0 (int_of_string_opt n) in
        if n < 1 then usage ();
        let times = List.init n (fun _ -> json_num (calibrate ())) in
        print_endline (json_obj [ ("calib_s", "[" ^ String.concat "," times ^ "]") ]);
        exit 0
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let tiny = match !scale with "full" -> false | "tiny" -> true | _ -> usage () in
  if !seed < 0 || not (List.mem !mode [ "plain"; "timed"; "critpath" ]) then usage ();
  let setup () =
    match !workload with
    | "oltp_contended" ->
        let env = Oltp.setup (if tiny then Oltp.tiny else Oltp.full) in
        (* The default lock configuration is the point of this workload. *)
        assert (env.Oltp.server.Bess.Server.detect = `Graph);
        assert (Bess.Server.lock_handoff env.Oltp.server);
        { measure = Oltp.measure env; verify = Oltp.verify env }
    | "nav_spill" ->
        let env = Nav.setup (if tiny then Nav.tiny else Nav.full) in
        { measure = Nav.measure env; verify = Nav.verify env }
    | "shard_2pc" ->
        let env = Shard2pc.setup (if tiny then Shard2pc.tiny else Shard2pc.full) in
        { measure = Shard2pc.measure env; verify = Shard2pc.verify env }
    | _ -> usage ()
  in
  let w_setup = wall_ns () in
  let r = setup () in
  let setup_s = float_of_int (wall_ns () - w_setup) /. 1e9 in
  let critpath =
    if !mode = "critpath" then begin
      Bess_obs.Span.install (Some (Bess_obs.Span.create ()));
      let c = Bess_obs.Critpath.create ~root_kinds:[ "sched.txn" ] () in
      Bess_obs.Critpath.install (Some c);
      Some c
    end
    else None
  in
  Tracer.on := !mode = "timed";
  let before = Counters.snapshot () in
  let gc0 = Gc.quick_stat () in
  let w0 = wall_ns () in
  let t, sim_ns = r.measure ~seed:!seed in
  let w1 = wall_ns () in
  let gc1 = Gc.quick_stat () in
  Tracer.on := false;
  let counts = Counters.delta ~before ~after:(Counters.snapshot ()) in
  let blame =
    match critpath with
    | None -> []
    | Some c ->
        Bess_obs.Critpath.install None;
        Bess_obs.Span.install None;
        let total = float_of_int (Stdlib.max 1 (Bess_obs.Critpath.total_ns c)) in
        List.map (fun (phase, ns) -> (phase, float_of_int ns /. total)) (Bess_obs.Critpath.blame_totals c)
  in
  if !spans <> "" then Tracer.write_spans !spans ~origin:w0;
  let checks, state = r.verify ~inject:!inject in
  (* ---- derived figures ---- *)
  let f = float_of_int in
  let get = Counters.get counts in
  let commits = Stdlib.max 1 t.commits in
  let per_commit x = f x /. f commits in
  let failed = n_failed t in
  let p50, _ = percentile t 0.50 and p99, beyond_p99 = percentile t 0.99 in
  let wall = w1 - w0 in
  let alloc =
    gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
    -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words)
  in
  let sim =
    [ ("commits_per_sim_s", f t.commits *. 1e9 /. f (Stdlib.max 1 sim_ns));
      ("txn_p50_sim_us", f p50 /. 1e3);
      ("txn_p99_sim_us", f p99 /. 1e3);
      ("bytes_written_per_user_byte",
       f (get "log.forced_bytes" + get "store.page_flush_bytes")
       /. f (Stdlib.max 1 (get "store.logical_bytes")));
      ("fail_frac", f failed /. f (Stdlib.max 1 t.attempts));
      ("commit_frac", f t.commits /. f (Stdlib.max 1 t.attempts)) ]
  in
  let lock_fails =
    List.fold_left
      (fun acc k -> acc + Option.value ~default:0 (Hashtbl.find_opt t.fails k))
      0 [ "deadlock"; "lock_timeout"; "give_up" ]
  in
  let layer_counts =
    [ ("lock.blocks_per_commit", per_commit (get "lock.blocks"));
      ("lock.aborts_per_1k_attempts", 1000. *. f lock_fails /. f (Stdlib.max 1 t.attempts));
      ("callback.sent_per_commit", per_commit (get "server.callbacks_sent"));
      ("wal.forces_per_commit", per_commit (get "log.forces"));
      ("wal.forced_bytes_per_commit", per_commit (get "log.forced_bytes"));
      ("cache.hit_ratio",
       f (get "cache.hits") /. f (Stdlib.max 1 (get "cache.hits" + get "cache.misses")));
      ("cache.evict_dirty_per_commit", per_commit (get "cache.evict_dirty"));
      ("state_clock.victims_per_commit", per_commit (get "state_clock.victims"));
      ("session.fetches_per_commit",
       per_commit (get "session.slotted_faults" + get "session.data_faults" + get "session.large_faults"));
      ("vmem.faults_per_commit", per_commit (get "vmem.faults.read" + get "vmem.faults.write"));
      ("vmem.protect_calls_per_commit", per_commit (get "vmem.protect_calls"));
      ("net.messages_per_commit", per_commit (get "net.messages"));
      ("net.bytes_per_commit", per_commit (get "net.bytes"));
      ("sched.events_per_commit", per_commit (get "sched.events")) ]
  in
  let real =
    [ ("wall_us_per_commit", f wall /. 1e3 /. f commits);
      ("alloc_words_per_commit", alloc /. f commits);
      ("peak_heap_mb", f gc1.Gc.top_heap_words *. f (Sys.word_size / 8) /. 1e6);
      ("setup_s", setup_s);
      ("gc.promoted_words_per_commit", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. f commits);
      ("gc.major_collections_per_1k_commits",
       1000. *. f (gc1.Gc.major_collections - gc0.Gc.major_collections) /. f commits) ]
  in
  let timed = ref 0 in
  let timers =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun k name ->
              let n = Tracer.calls.(k) and ns = Tracer.total_ns.(k) in
              timed := !timed + ns;
              [ (name ^ "_ns", if n = 0 then 0. else f ns /. f n);
                (name ^ "_share", f ns /. f (Stdlib.max 1 wall)) ])
            timer_names))
  in
  let timers =
    if !mode = "timed" then timers @ [ ("sched.self_ns_per_commit", f (wall - !timed) /. f commits) ]
    else []
  in
  let shares =
    if critpath = None then []
    else
      List.map
        (fun (phase, metric) ->
          (metric, Option.value ~default:0. (List.assoc_opt phase blame)))
        [ ("lock", "lock.wait_share"); ("wal", "wal.wait_share"); ("net", "net.wait_share");
          ("2pc", "2pc.wait_share") ]
  in
  let counts_sorted =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare
  in
  let fails_sorted = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fails [] |> List.sort compare in
  (* Same seed, same code: this digest of every simulated outcome must
     repeat exactly, whatever the wall clock did. It names no input, so
     two seeds share a fingerprint only if their outcomes coincide. *)
  let fingerprint =
    let lat = Array.sub t.lat 0 t.n_lat in
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [ string_of_int t.attempts; string_of_int t.commits; string_of_int sim_ns;
              String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fails_sorted);
              String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts_sorted);
              String.concat "," (Array.to_list (Array.map string_of_int lat));
              Digest.string state ]))
  in
  let floats l = json_obj (List.map (fun (k, v) -> (k, json_num v)) l) in
  let ints l = json_obj (List.map (fun (k, v) -> (k, string_of_int v)) l) in
  let checks =
    ("reads_match_shadow", t.mismatches = 0, Printf.sprintf "%d reads disagreed with the shadow" t.mismatches)
    :: ("tail_samples", tiny || beyond_p99 >= 10,
        Printf.sprintf "%d samples above p99 of %d" beyond_p99 t.n_lat)
    :: checks
  in
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  print_endline
    (json_obj
       [ ("workload", Bess_obs.Registry.json_string !workload);
         ("seed", string_of_int !seed);
         ("scale", Bess_obs.Registry.json_string !scale);
         ("mode", Bess_obs.Registry.json_string !mode);
         ("correct", string_of_bool correct);
         ("attempted", string_of_int t.attempts);
         ("committed", string_of_int t.commits);
         ("failed", string_of_int failed);
         ("fails", ints fails_sorted);
         ("samples", string_of_int t.n_lat);
         ("beyond_p99", string_of_int beyond_p99);
         ("sim_ns", string_of_int sim_ns);
         ("sim", floats sim);
         ("layer_counts", floats layer_counts);
         ("counts", ints counts_sorted);
         ("real", floats real);
         ("timers", floats timers);
         ("critpath", floats shares);
         ("checks",
          "["
          ^ String.concat ","
              (List.map
                 (fun (name, ok, detail) ->
                   json_obj
                     [ ("name", Bess_obs.Registry.json_string name); ("ok", string_of_bool ok);
                       ("detail", Bess_obs.Registry.json_string detail) ])
                 checks)
          ^ "]");
         ("fingerprint", Bess_obs.Registry.json_string fingerprint) ])
