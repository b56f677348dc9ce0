(* GC allocation accounting: cheap (no heap traversal), monotone
   counters, safe to sample from any domain. Word counts are per-domain
   in OCaml 5, which is exactly what a per-solve delta wants: the
   sampling domain is the solving domain. *)

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type words = { minor : float; promoted : float; major : float }

(* Minor words from [Gc.minor_words], which reads the allocation pointer,
   so a delta smaller than the young generation shows at once (the minor
   count of [Gc.counters] is an eighth of it in OCaml 5.1.1: 1,376 words
   for 11,010). Promoted and major words from [Gc.counters], whose major
   count adds the words allocated since the last major slice, so a block
   allocated straight into the major heap shows at once too.
   [Gc.quick_stat]'s word counts only move at minor collections and
   major slices. The minor words are read first, before [Gc.counters]
   allocates its result. *)
let words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  { minor; promoted; major }

let words_since w0 =
  let w1 = words () in
  { minor = w1.minor -. w0.minor; promoted = w1.promoted -. w0.promoted;
    major = w1.major -. w0.major }

let sample () =
  let w = words () in
  let s = Gc.quick_stat () in
  {
    minor_words = w.minor;
    promoted_words = w.promoted;
    major_words = w.major;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let since s0 =
  let s1 = sample () in
  {
    minor_words = s1.minor_words -. s0.minor_words;
    promoted_words = s1.promoted_words -. s0.promoted_words;
    major_words = s1.major_words -. s0.major_words;
    minor_collections = s1.minor_collections - s0.minor_collections;
    major_collections = s1.major_collections - s0.major_collections;
  }

(* ---- cross-domain aggregation ----

   GC counters are domain-local in OCaml 5, so any single-point reader
   (a CLI epilogue) under-reports by whatever the other domains
   allocated. Instead of trying to read foreign
   domains' counters (impossible), each domain folds its own growth into
   these process-wide registry counters; a flush is two [Gc] reads plus
   five atomic adds, cheap enough for per-request / per-worker use. *)

let c_minor = Metrics.counter "qwm.alloc.domains_minor_words"
let c_promoted = Metrics.counter "qwm.alloc.domains_promoted_words"
let c_major = Metrics.counter "qwm.alloc.domains_major_words"
let c_minor_gcs = Metrics.counter "qwm.alloc.domains_minor_collections"
let c_major_gcs = Metrics.counter "qwm.alloc.domains_major_collections"

let zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
  }

(* last flushed cumulative sample of the calling domain; fresh domains
   start their GC counters at zero, so the zero baseline charges a
   domain's whole life to its first flush *)
let flushed : sample ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref zero)

let flush_domain () =
  let last = Domain.DLS.get flushed in
  let now = sample () in
  Metrics.add c_minor (int_of_float (now.minor_words -. !last.minor_words));
  Metrics.add c_promoted
    (int_of_float (now.promoted_words -. !last.promoted_words));
  Metrics.add c_major (int_of_float (now.major_words -. !last.major_words));
  Metrics.add c_minor_gcs (now.minor_collections - !last.minor_collections);
  Metrics.add c_major_gcs (now.major_collections - !last.major_collections);
  last := now

let to_json s =
  Json.Obj
    [
      ("minor_words", Json.Float s.minor_words);
      ("promoted_words", Json.Float s.promoted_words);
      ("major_words", Json.Float s.major_words);
      ("minor_collections", Json.Int s.minor_collections);
      ("major_collections", Json.Int s.major_collections);
    ]

let quick_stat_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [
      ("minor_words", Json.Float (Gc.minor_words ()));
      ("promoted_words", Json.Float s.Gc.promoted_words);
      ("major_words", Json.Float s.Gc.major_words);
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("compactions", Json.Int s.Gc.compactions);
      ("heap_words", Json.Int s.Gc.heap_words);
      ("top_heap_words", Json.Int s.Gc.top_heap_words);
    ]
