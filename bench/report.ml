(* Table rendering for the experiment harness.

   Each experiment prints one table in the style of the paper's would-be
   evaluation section: a caption tying it to the claim it reproduces, a
   header row, and aligned data rows. Cells are strings; helpers format
   counts, nanoseconds, bytes and ratios consistently. *)

let ns v =
  if v >= 1_000_000_000.0 then Printf.sprintf "%.2fs" (v /. 1e9)
  else if v >= 1_000_000.0 then Printf.sprintf "%.2fms" (v /. 1e6)
  else if v >= 1_000.0 then Printf.sprintf "%.2fus" (v /. 1e3)
  else Printf.sprintf "%.0fns" v

let bytes v =
  let f = float_of_int v in
  if f >= 1073741824.0 then Printf.sprintf "%.2fGB" (f /. 1073741824.0)
  else if f >= 1048576.0 then Printf.sprintf "%.2fMB" (f /. 1048576.0)
  else if f >= 1024.0 then Printf.sprintf "%.1fKB" (f /. 1024.0)
  else Printf.sprintf "%dB" v

let count v =
  if v >= 1_000_000 then Printf.sprintf "%.2fM" (float_of_int v /. 1e6)
  else if v >= 10_000 then Printf.sprintf "%.1fk" (float_of_int v /. 1e3)
  else string_of_int v

let ratio v = Printf.sprintf "%.2fx" v
let fixed f = Printf.sprintf "%.3f" f
let percent f = Printf.sprintf "%.1f%%" (100.0 *. f)

let table ~id ~caption ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line ch =
    String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths)
  in
  let render row =
    String.concat "|"
      (List.map2 (fun cell w -> Printf.sprintf " %-*s " w cell) row widths)
  in
  Printf.printf "\n=== %s: %s\n" id caption;
  Printf.printf "%s\n" (render header);
  Printf.printf "%s\n" (line '-');
  List.iter (fun row -> Printf.printf "%s\n" (render row)) rows;
  Printf.printf "%!"

let note fmt = Printf.printf ("    " ^^ fmt ^^ "\n%!")

(* ---- Gates ------------------------------------------------------------------ *)

(* A gate is a note with a verdict: it prints "<name>: OK|FAILED
   (<detail>)" and remembers failures, so the harness can exit non-zero
   once the report is written (the smoke alias relies on that). *)
let failed_gates : string list ref = ref []

let gate name ok detail =
  if not ok then failed_gates := name :: !failed_gates;
  note "%s: %s%s" name (if ok then "OK" else "FAILED")
    (if detail = "" then "" else " (" ^ detail ^ ")")

(* ---- JSON artifacts ----------------------------------------------------------- *)

module Json = Bess_obs.Json

(* Every JSON file the harness writes goes through [write_artifact], so
   [check_artifacts] can read each one back before the run ends. *)
let artifacts : string list ref = ref []

let write_artifact path j =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.render j ^ "\n"));
  artifacts := path :: !artifacts

let check_artifacts () =
  let bad =
    List.filter_map
      (fun path ->
        match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
        | Ok _ -> None
        | Error e -> Some (path ^ ": " ^ e))
      (List.rev !artifacts)
  in
  gate "artifacts parse" (bad = [])
    (if bad = [] then Printf.sprintf "%d files" (List.length !artifacts)
     else String.concat "; " bad)

(* Write the timestamped BENCH_<experiment>.json trajectory artifact:
   the experiment name and wall-clock stamp, then [fields] in order.
   Returns the stamp. *)
let write_bench ~experiment fields =
  let stamp = Bess_obs.Flightrec.iso8601 (Unix.gettimeofday ()) in
  write_artifact
    (Printf.sprintf "BENCH_%s.json" experiment)
    (Obj (("experiment", Json.Str experiment) :: ("wall_time", Str stamp) :: fields));
  stamp

let ints l = Json.Arr (List.map (fun i -> Json.Int i) l)

(* ---- Observability report --------------------------------------------- *)

(* Each experiment runs under [with_observed], which brackets it with
   registry snapshots; the per-substrate counter deltas and histogram
   summaries accumulate here and [write_json] dumps them at exit. *)

type observed = {
  obs_name : string;
  obs_elapsed_ns : int;
  obs_diff : Bess_obs.Registry.snapshot;
}

let observations : observed list ref = ref []

let with_observed name f =
  let before = Bess_obs.Registry.snapshot () in
  let t0 = Unix.gettimeofday () in
  let r =
    Bess_obs.Span.with_span ~kind:"bench.workload" ~attrs:[ ("name", name) ] f
  in
  let elapsed = Float.to_int (Float.round ((Unix.gettimeofday () -. t0) *. 1e9)) in
  let after = Bess_obs.Registry.snapshot () in
  observations :=
    { obs_name = name;
      obs_elapsed_ns = elapsed;
      obs_diff = Bess_obs.Registry.diff ~before ~after () }
    :: !observations;
  r

(* Per-span-kind latency summary from the installed collector's
   histograms ("span.<kind>" under the registry's "span" prefix), in
   simulated nanoseconds. Empty when tracing is off. *)
let span_breakdown () =
  match Bess_obs.Span.installed () with
  | None -> []
  | Some c ->
      let h = Bess_util.Stats.histograms (Bess_obs.Span.stats c) in
      let entries =
        List.filter_map
          (fun (name, hist) ->
            if Bess_util.Histogram.count hist = 0 then None
            else
              let kind =
                if String.length name > 5 && String.sub name 0 5 = "span." then
                  String.sub name 5 (String.length name - 5)
                else name
              in
              let module H = Bess_util.Histogram in
              let p q = Json.Int (H.percentile hist q) in
              Some
                ( kind,
                  Json.Obj
                    [ ("count", Int (H.count hist)); ("sum_ns", Int (H.sum hist));
                      ("mean_ns", Json.fixed 1 (H.mean hist)); ("p50_ns", p 50.0);
                      ("p90_ns", p 90.0); ("p99_ns", p 99.0); ("max_ns", Int (H.max hist)) ] ))
          (List.sort compare h)
      in
      [ ("span_breakdown", Json.Obj entries) ]

(* Extra top-level sections ("e13_series": {...}) contributed by
   experiments. *)
let extra_sections : (string * Json.t) list ref = ref []
let add_section name json = extra_sections := (name, json) :: !extra_sections

(* An experiment's result, [(key, json)]: the report section [section]
   and the last field of BENCH_<experiment>.json, after [fields]. *)
let publish ~experiment ~section fields (key, json) =
  add_section section json;
  let stamp = write_bench ~experiment (fields @ [ (key, json) ]) in
  note "%s written to BENCH_%s.json (%s) and the report's %s section" key experiment stamp
    section

let write_json path =
  let workload o =
    Json.Obj
      [ ("name", Str o.obs_name); ("elapsed_ns", Int o.obs_elapsed_ns);
        ("observed", Bess_obs.Registry.json_of_snapshot o.obs_diff) ]
  in
  write_artifact path
    (Obj
       ((("workloads", Json.Arr (List.rev_map workload !observations)) :: span_breakdown ())
       @ List.rev !extra_sections))

(* Wall-clock timing of a thunk, median of [runs]. *)
let time_ns ?(runs = 3) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

(* Per-op timing: run f() [iters] times, return ns/op (median of [runs]
   timed batches, to shed scheduler noise). *)
let time_per_op ?(runs = 3) ~iters f =
  let one () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let samples = List.init runs (fun _ -> one ()) in
  List.nth (List.sort compare samples) (runs / 2)
