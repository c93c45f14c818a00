(* The memory X-ray: SHARDS miss-ratio curves (exact-mode equivalence
   against a brute-force Mattson stack, sampled-mode accuracy,
   determinism), the heat sketch's decay/cap/ordering, and the Memx
   wiring (hook zero-cost, install/uninstall symmetry). *)

module Mrc = Bess_obs.Mrc
module Heat = Bess_obs.Heat
module Span = Bess_obs.Span
module Registry = Bess_obs.Registry
module Cache = Bess_cache.Cache
module Memx = Bess_cache.Memx
module Page_id = Bess_cache.Page_id
module Prng = Bess_util.Prng
module Stats = Bess_util.Stats

(* Brute-force Mattson stack: a recency list; the stack distance of a
   reuse is its 1-based position, a first touch is infinite. Returns the
   hit count at cache size [size]. *)
let brute_force_hits accesses ~size =
  let stack = ref [] in
  let hits = ref 0 in
  List.iter
    (fun k ->
      let rec remove i acc = function
        | [] -> (None, List.rev acc)
        | x :: rest when x = k -> (Some i, List.rev_append acc rest)
        | x :: rest -> remove (i + 1) (x :: acc) rest
      in
      let found, rest = remove 0 [] !stack in
      (match found with Some i when i < size -> incr hits | _ -> ());
      stack := k :: rest)
    accesses;
  !hits

let zipf_stream ~seed ~n_keys ~theta ~n =
  let prng = Prng.create seed in
  let next = Prng.zipf prng ~n:n_keys ~theta in
  List.init n (fun _ -> next ())

let test_exact_matches_brute_force () =
  (* rate_bits = 0: every access tracked, distances exact — the curve
     must equal the brute-force Mattson stack at every probed size. *)
  let accesses = zipf_stream ~seed:42 ~n_keys:120 ~theta:0.8 ~n:3000 in
  let mrc = Mrc.create ~rate_bits:0 () in
  List.iter (fun k -> Mrc.access mrc k) accesses;
  Alcotest.(check int) "all sampled" 3000 (Mrc.n_sampled mrc);
  List.iter
    (fun size ->
      let expect = float_of_int (brute_force_hits accesses ~size) /. 3000.0 in
      let got = Mrc.predicted_hit_rate mrc ~size in
      Alcotest.(check bool)
        (Printf.sprintf "exact hit rate at size %d (%.4f vs %.4f)" size expect got)
        true
        (abs_float (expect -. got) < 1e-9))
    [ 1; 2; 8; 32; 64; 128 ]

let test_sampled_tracks_exact () =
  (* 1/16 spatial sampling must land within a few points of the exact
     curve on a skewed stream. *)
  let accesses = zipf_stream ~seed:7 ~n_keys:2000 ~theta:0.9 ~n:60_000 in
  let exact = Mrc.create ~rate_bits:0 () in
  let sampled = Mrc.create ~rate_bits:4 () in
  List.iter
    (fun k ->
      Mrc.access exact k;
      Mrc.access sampled k)
    accesses;
  Alcotest.(check bool) "sampling actually filtered" true
    (Mrc.n_sampled sampled * 4 < Mrc.n_sampled exact);
  let err size =
    abs_float
      (Mrc.predicted_hit_rate exact ~size -. Mrc.predicted_hit_rate sampled ~size)
  in
  (* At R = 1/16 a size-64 cache maps to sampled depth 4 — the estimate
     is inherently coarse that close to 1/R, so only a loose bound holds
     there; from ~16/R up the curve tracks within a few points. *)
  Alcotest.(check bool)
    (Printf.sprintf "size 64 coarse bound (err %.3f)" (err 64))
    true (err 64 < 0.15);
  List.iter
    (fun size ->
      Alcotest.(check bool)
        (Printf.sprintf "size %d: sampled within 0.05 of exact (err %.3f)" size (err size))
        true
        (err size < 0.05))
    [ 256; 1024; 4096 ]

let test_curve_monotone_and_deterministic () =
  let feed () =
    let mrc = Mrc.create ~rate_bits:3 () in
    List.iter (fun k -> Mrc.access mrc k) (zipf_stream ~seed:11 ~n_keys:500 ~theta:0.7 ~n:20_000);
    mrc
  in
  let a = feed () and b = feed () in
  Alcotest.(check string) "same stream, byte-identical json"
    (Bess_obs.Json.render (Mrc.json_of a))
    (Bess_obs.Json.render (Mrc.json_of b));
  Alcotest.(check int) "same fingerprint" (Mrc.fingerprint a) (Mrc.fingerprint b);
  let curve = Mrc.curve a ~max_size:(1 lsl 12) in
  ignore
    (List.fold_left
       (fun prev (size, rate) ->
         Alcotest.(check bool)
           (Printf.sprintf "hit rate non-decreasing at size %d" size)
           true (rate >= prev -. 1e-9);
         rate)
       0.0 curve);
  Alcotest.(check bool) "curve is non-trivial" true
    (List.exists (fun (_, r) -> r > 0.2) curve)

let test_mrc_compaction_survives () =
  (* Push the position space far past its initial capacity: compaction
     must preserve stack order (reuse distances stay exact). *)
  let mrc = Mrc.create ~rate_bits:0 () in
  (* A cyclic scan over k keys: after warmup every access has stack
     distance exactly k. *)
  let k = 700 in
  for round = 0 to 9 do
    for key = 0 to k - 1 do
      ignore round;
      Mrc.access mrc key
    done
  done;
  let at_k = Mrc.predicted_hit_rate mrc ~size:k in
  let under_k = Mrc.predicted_hit_rate mrc ~size:(k - 1) in
  Alcotest.(check bool) "scan hits at size k" true (at_k > 0.85);
  Alcotest.(check bool) "scan misses below k" true (under_k < 0.01)

let test_heat_decay_and_top () =
  let h = Heat.create ~window_ns:1_000 ~max_keys:64 () in
  for _ = 1 to 8 do
    Heat.access h 1
  done;
  Heat.access h 2;
  Span.advance_ns 1_000;
  (* First access after the boundary ages the table: 8 -> 4, 1 -> 0. *)
  Heat.access h 3;
  (match Heat.top_k h 2 with
  | (k1, f1, _) :: _ ->
      Alcotest.(check int) "hottest key survives decay" 1 k1;
      Alcotest.(check int) "frequency halved" 4 f1
  | [] -> Alcotest.fail "empty top_k");
  Alcotest.(check bool) "decayed-to-zero key dropped" true
    (not (List.exists (fun (k, _, _) -> k = 2) (Heat.top_k h 10)));
  (* Deterministic tie-break: equal frequencies order by key. *)
  let h2 = Heat.create ~window_ns:1_000_000_000 ~max_keys:64 () in
  List.iter (fun k -> Heat.access h2 k) [ 9; 3; 7 ];
  Alcotest.(check (list int)) "ties break on key" [ 3; 7; 9 ]
    (List.map (fun (k, _, _) -> k) (Heat.top_k h2 3))

let test_heat_cap_bounds_table () =
  let h = Heat.create ~window_ns:1_000_000_000 ~max_keys:4 () in
  for _ = 1 to 8 do
    Heat.access h 100
  done;
  for k = 1 to 20 do
    Heat.access h k
  done;
  Alcotest.(check bool) "table bounded" true (Heat.tracked_keys h <= 4);
  Alcotest.(check bool) "accesses all counted" true (Heat.n_total h = 28);
  match Heat.top_k h 1 with
  | (k, _, _) :: _ -> Alcotest.(check int) "hot key survives the cap" 100 k
  | [] -> Alcotest.fail "cap emptied the table"

let run_workload cache =
  (* Same clock policy the store installs, so the two caches compared in
     the zero-cost test evict identically. *)
  ignore (Bess_cache.Clock.create cache);
  let pid p = Page_id.make ~area:1 ~page:p in
  let prng = Prng.create 99 in
  let next = Prng.zipf prng ~n:64 ~theta:0.8 in
  for _ = 1 to 2000 do
    let s =
      Cache.load cache (pid (next ())) ~fill:(fun b -> Bytes.fill b 0 (Bytes.length b) 'x')
    in
    Cache.unpin cache s
  done

let test_memx_zero_cost_when_off () =
  (* Cache counters with the X-ray installed-and-uninstalled must be
     bit-identical to a cache that never had it. *)
  Registry.with_fresh (fun () ->
      let bare = Cache.create ~nslots:16 ~page_size:64 in
      run_workload bare;
      let baseline = Fmt.str "%a" Stats.pp (Cache.stats bare) in
      let watched = Cache.create ~nslots:16 ~page_size:64 in
      let memx = Memx.install ~rate_bits:0 watched in
      run_workload watched;
      Alcotest.(check bool) "hook observed the traffic" true
        (Bess_obs.Mrc.n_total (Memx.mrc memx) > 0);
      Alcotest.(check string) "cache counters unchanged by the observer" baseline
        (Fmt.str "%a" Stats.pp (Cache.stats watched));
      (* Predicted-vs-actual, unit-scale: exact-mode MRC on the very
         trace the cache served should come close even at 2k accesses. *)
      let actual = Cache.hit_ratio watched in
      let predicted = Memx.predicted_hit_rate memx in
      Alcotest.(check bool)
        (Printf.sprintf "predicted %.3f within 0.05 of actual %.3f" predicted actual)
        true
        (abs_float (predicted -. actual) < 0.05);
      Memx.uninstall memx;
      run_workload watched;
      Alcotest.(check int) "uninstalled hook sees nothing more" 2000
        (Bess_obs.Mrc.n_total (Memx.mrc memx)))

let test_memx_gauges_and_aux () =
  Registry.with_fresh (fun () ->
      let cache = Cache.create ~nslots:8 ~page_size:64 in
      let memx = Memx.install ~rate_bits:0 cache in
      run_workload cache;
      let gauges = Registry.gauges (Registry.snapshot ()) in
      let has name = List.mem_assoc name gauges in
      Alcotest.(check bool) "mrc gauges registered" true
        (has "mrc.accesses" && has "mrc.predicted_hit_bp" && has "heat.tracked_keys");
      Alcotest.(check (option int)) "gauge mirrors the sketch"
        (Some (Bess_obs.Mrc.n_total (Memx.mrc memx)))
        (List.assoc_opt "mrc.accesses" gauges);
      (* Aux sections reach flight-recorder artifacts (render works
         while disarmed). *)
      let dump = Bess_obs.Flightrec.render ~reason:"test" () in
      (match Bess_obs.Json.parse dump with
      | Error e -> Alcotest.failf "unparseable flightrec render: %s" e
      | Ok j ->
          Alcotest.(check bool) "aux_mrc present" true (Bess_obs.Json.member "aux_mrc" j <> None);
          Alcotest.(check bool) "aux_heat present" true
            (Bess_obs.Json.member "aux_heat" j <> None);
          (* Heat entries carry the area:page label for operators. *)
          (match Bess_obs.Json.member "aux_heat" j with
          | Some heat ->
              (match Bess_obs.Json.get_list heat "top" with
              | top :: _ ->
                  Alcotest.(check bool) "heat entry labeled" true
                    (Bess_obs.Json.get_string top "page" <> "")
              | [] -> Alcotest.fail "empty heat top")
          | None -> ()));
      Memx.uninstall memx;
      let gauges = Registry.gauges (Registry.snapshot ()) in
      Alcotest.(check bool) "uninstall drops the namespaces" true
        (not (List.mem_assoc "mrc.accesses" gauges)
        && not (List.mem_assoc "heat.tracked_keys" gauges));
      let dump = Bess_obs.Flightrec.render ~reason:"test" () in
      Alcotest.(check bool) "uninstall clears aux sources" true
        (match Bess_obs.Json.parse dump with
        | Ok j -> Bess_obs.Json.member "aux_mrc" j = None
        | Error _ -> false))

(* Page keys pack the area above bit 40, so an area >= 8192 gives keys
   past 2^53: a flight-recorder dump must carry them exactly. *)
let test_heat_dump_large_keys () =
  Registry.with_fresh (fun () ->
      let cache = Cache.create ~nslots:8 ~page_size:64 in
      let memx = Memx.install ~rate_bits:0 cache in
      Fun.protect
        ~finally:(fun () -> Memx.uninstall memx)
        (fun () ->
          List.iter
            (fun page ->
              Cache.unpin cache (Cache.load cache (Page_id.make ~area:918_100 ~page) ~fill:ignore))
            [ 1234; 1235; 1; 77_777 ];
          let dump = Bess_obs.Json.parse_exn (Bess_obs.Flightrec.render ~reason:"test" ()) in
          let heat = Option.get (Bess_obs.Json.member "aux_heat" dump) in
          let top = Bess_obs.Json.get_list heat "top" in
          Alcotest.(check int) "every page ranked" 4 (List.length top);
          List.iter
            (fun e ->
              let label = Bess_obs.Json.get_string e "page" in
              let page = Scanf.sscanf label "%d:%d" (fun area page -> Page_id.make ~area ~page) in
              Alcotest.(check int) ("key of " ^ label) (Page_id.to_key page)
                (Bess_obs.Json.get_int e "key"))
            top))

let test_page_key_roundtrip () =
  List.iter
    (fun (area, page) ->
      let p = Page_id.make ~area ~page in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %d:%d" area page)
        true
        (Page_id.equal p (Page_id.of_key (Page_id.to_key p))))
    [ (0, 0); (1, 1); (7, 123_456); (4_000_000, 1 lsl 39); (0, (1 lsl 40) - 1) ]

let suite =
  [
    Alcotest.test_case "mrc_exact_vs_brute_force" `Quick test_exact_matches_brute_force;
    Alcotest.test_case "mrc_sampled_accuracy" `Quick test_sampled_tracks_exact;
    Alcotest.test_case "mrc_deterministic_monotone" `Quick test_curve_monotone_and_deterministic;
    Alcotest.test_case "mrc_compaction" `Quick test_mrc_compaction_survives;
    Alcotest.test_case "heat_decay_top" `Quick test_heat_decay_and_top;
    Alcotest.test_case "heat_cap" `Quick test_heat_cap_bounds_table;
    Alcotest.test_case "memx_zero_cost" `Quick test_memx_zero_cost_when_off;
    Alcotest.test_case "memx_gauges_aux" `Quick test_memx_gauges_and_aux;
    Alcotest.test_case "page_key_roundtrip" `Quick test_page_key_roundtrip;
    Alcotest.test_case "heat_dump_large_keys" `Quick test_heat_dump_large_keys;
  ]
