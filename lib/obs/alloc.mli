(** Allocation accounting on top of [Gc.quick_stat] and [Gc.minor_words].

    Both read domain-local counters without walking the heap, so sampling
    is cheap enough for per-solve deltas. Minor words come from
    [Gc.minor_words] (precise — reads the allocation pointer) rather than
    [quick_stat], whose counters only refresh at minor collections and
    would round any delta smaller than the young generation down to
    zero. Counters are per-domain in OCaml 5: a [sample]/[since] pair
    taken on the solving domain measures exactly that domain's
    allocation. *)

type sample = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** minor words that survived into the major heap *)
  major_words : float;  (** words allocated in the major heap, incl. promotions *)
  minor_collections : int;
  major_collections : int;
}

val sample : unit -> sample
(** Current cumulative counters for the calling domain. *)

val since : sample -> sample
(** [since s0] is the counter delta from [s0] to now. The delta includes
    the few words [quick_stat] itself allocates — noise of ~10 words,
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
