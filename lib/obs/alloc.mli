(** Allocation accounting on top of [Gc.minor_words], [Gc.counters] and
    [Gc.quick_stat].

    All three read domain-local counters without walking the heap, so
    sampling is cheap enough for per-solve deltas. The word counts are
    exact: minor words come from [Gc.minor_words], which reads the
    allocation pointer, and promoted and major words from [Gc.counters],
    whose major words include blocks allocated straight into the major
    heap since the last major slice. [Gc.quick_stat]'s own word counts
    only move at minor collections and major slices, so it supplies just
    the collection counts. Counters are per-domain in OCaml 5: a
    [sample]/[since] pair taken on the solving domain measures exactly
    that domain's allocation. *)

type sample = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** minor words that survived into the major heap *)
  major_words : float;  (** words allocated in the major heap, incl. promotions *)
  minor_collections : int;
  major_collections : int;
}

val sample : unit -> sample
(** Current cumulative counters for the calling domain. *)

type words = { minor : float; promoted : float; major : float }
(** The word counts of a {!sample} alone. *)

val words : unit -> words
(** The calling domain's cumulative word counts, read as {!sample} reads
    them but without its [Gc.quick_stat]: for callers that report no
    collection count, such as the solver's per-solve accounting. *)

val words_since : words -> words
(** [words_since w0] is the word delta from [w0] to now. *)

val since : sample -> sample
(** [since s0] is the counter delta from [s0] to now. The delta includes
    the few words the sampling itself allocates — noise of ~10 words,
    irrelevant at per-solve granularity. *)

val flush_domain : unit -> unit
(** Fold the calling domain's GC counter growth since its previous flush
    (or since the domain was born) into the process-wide
    [qwm.alloc.domains_*] registry counters ([minor_words],
    [promoted_words], [major_words], [minor_collections],
    [major_collections]). GC counters are domain-local in OCaml 5, so a
    single-point reader only sees its own domain; every worker domain
    flushing on completion makes the exported counters cover the whole
    process. Two [Gc] reads
    plus five atomic adds; safe from any domain, idempotent between
    allocations. *)

val to_json : sample -> Json.t

val quick_stat_json : unit -> Json.t
(** The full current [Gc.quick_stat] as JSON (cumulative process view,
    plus heap-size fields) — for CLI [--metrics] / [--json] reports. *)
