(* What every workload shares: its settings, its outcome, and the
   end-to-end metrics of its measured loop. *)

type settings = {
  seed : int;
  seconds : float;  (** length of the measured loop *)
  scale : float;  (** input-size factor; 1 for the benchmark proper *)
  spans : Span.t option;  (** the main domain's recorder on a traced run *)
}

type outcome = {
  attempted : int;  (** operations attempted in the measured loop *)
  failed : int;
  checks : (string * bool) list;  (** correctness checks, by name *)
  metrics : (string * float) list;
}

let tech = Tqwm_device.Tech.cmosp35

(* Set-up is repeated and its median reported. *)
let setup_repeats = 7

(* [n] scaled by the input-size factor, at least [floor]. *)
let scaled ?(floor = 1) s n = max floor (int_of_float (Float.round (s.scale *. float_of_int n)))

(* The end-to-end metrics of a measured loop, except memory, which is
   read at exit. Each is the median over the loop's time windows: the
   host's slow spells, which last seconds, then move a minority of
   windows instead of every number. *)
let end_to_end ~setup_s ops =
  let summaries = Timer.Windows.summaries ops in
  let median f = Timer.median (Array.map f summaries) in
  [
    ("setup_s", setup_s);
    ("ops_per_s", median (fun w -> w.Timer.Windows.rate));
    ("op_ms_p50", 1e3 *. median (fun w -> w.Timer.Windows.p50));
    ("op_ms_slow10", 1e3 *. median (fun w -> w.Timer.Windows.slow10));
  ]

(* A traced run measures in quarters — untraced, traced, traced,
   untraced, so that a drift in speed over the run cancels — with
   [measure ~traced ~seconds] returning the operations done and the
   seconds they took. The operations in all quarters, and the tracing
   cost: the traced slowdown in operations per second. *)
let traced_quarters ~seconds measure =
  let quarters =
    List.map
      (fun traced -> (traced, measure ~traced ~seconds:(seconds /. 4.0)))
      [ false; true; true; false ]
  in
  let sum f = List.fold_left (fun acc q -> acc + f q) 0 in
  let rate traced =
    let mine = List.filter (fun (t, _) -> t = traced) quarters in
    let elapsed = List.fold_left (fun acc (_, (_, e)) -> acc +. e) 0.0 mine in
    float_of_int (sum (fun (_, (ops, _)) -> ops) mine) /. elapsed
  in
  ( sum (fun (_, (ops, _)) -> ops) quarters,
    ("trace_overhead_pct", 100.0 *. (1.0 -. (rate true /. rate false))) )
