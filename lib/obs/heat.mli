(** Per-key heat sketch: access frequencies decayed on the simulated
    clock, with last-access stamps.

    Frequencies halve once per elapsed [window_ns] (lazily, on the first
    access that sees the clock past a boundary); entries decayed to zero
    are dropped, and a hard [max_keys] cap evicts the coldest entries
    (frequency, then age, then key) when a drifting working set outruns
    organic decay — hot keys survive cold churn. Decay is self-clocked
    from {!Span.now_ns} — no {!Series} needs to be installed — and all
    stamps ([last_ns], window boundaries) are relative to the sketch's
    creation instant, so same-seed runs render byte-identical artifacts
    wherever they start on the absolute clock.

    Deterministic: ties in {!top_k} and {!json_of} break on the key, so
    same-seed runs render byte-identical artifacts. *)

type t

(** [create ()] decays once per [window_ns] simulated (default 1ms) and
    tracks at most [max_keys] keys (default 4096). *)
val create : ?window_ns:int -> ?max_keys:int -> unit -> t

(** [access t key] records one access at the current simulated time. *)
val access : t -> int -> unit

val window_ns : t -> int

(** All accesses observed. *)
val n_total : t -> int

(** Full-table decay passes taken so far. *)
val n_decays : t -> int

(** Keys currently tracked. *)
val tracked_keys : t -> int

(** The [k] hottest keys as [(key, freq, last_ns)], frequency descending,
    ties by key. *)
val top_k : t -> int -> (int * int * int) list

(** One deterministic JSON object with the top-[k] (default 20) entries;
    [key_label] renders each key as an extra ["page"] member. *)
val json_of : ?k:int -> ?key_label:(int -> string) -> t -> Json.t

(** CRC-32 of the rendered {!json_of} — the determinism gate's digest. *)
val fingerprint : ?k:int -> ?key_label:(int -> string) -> t -> int
