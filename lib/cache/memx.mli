(** The memory X-ray: {!Bess_obs.Mrc} + {!Bess_obs.Heat} wired onto a
    page cache's access hook and surfaced through the Registry (gauges
    under ["mrc"]/["heat"], sampled into every {!Bess_obs.Series}
    window) and Flightrec ([aux_mrc]/[aux_heat] dump sections).

    {!uninstall} restores the exact no-observer state: hook detached,
    gauges dropped, aux sources cleared — with nothing installed the
    cache's behaviour and counters are bit-identical to a build that
    never had the X-ray (the e18 zero-cost gate). *)

type t

(** Attach the sketches to [cache]. [rate_bits] is the MRC spatial
    sampling rate (2^-bits, default 4); [heat_window_ns] /
    [heat_max_keys] configure the heat sketch; [top_k] bounds the heat
    entries rendered into JSON artifacts (default 20). *)
val install :
  ?rate_bits:int ->
  ?heat_window_ns:int ->
  ?heat_max_keys:int ->
  ?top_k:int ->
  Cache.t ->
  t

val uninstall : t -> unit
val mrc : t -> Bess_obs.Mrc.t
val heat : t -> Bess_obs.Heat.t

(** Predicted hit rate at the cache's configured slot count — the number
    the e18 gate compares against the measured rate. *)
val predicted_hit_rate : t -> float

(** The [k] hottest pages as [(page, freq, last_ns)]. *)
val top_pages : t -> int -> (Page_id.t * int * int) list

(** MRC curve JSON (deterministic; see {!Bess_obs.Mrc.json_of}). *)
val json_of_mrc : ?max_size:int -> t -> Bess_obs.Json.t

(** Heat top-[k] JSON with ["area:page"] labels (deterministic). *)
val json_of_heat : ?k:int -> t -> Bess_obs.Json.t
