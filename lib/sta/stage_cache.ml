module Qwm = Tqwm_core.Qwm
module Metrics = Tqwm_obs.Metrics

(* Process-wide totals across every cache instance, exported through the
   metrics registry; the per-instance atomics below remain for
   instance-scoped [stats]. *)
let c_hits = Metrics.counter "stage_cache.hits"
let c_misses = Metrics.counter "stage_cache.misses"

type stats = { hits : int; misses : int; entries : int }

(* Single-flight slots: the first domain to request a key claims it and
   solves; later requesters block on [cond] until the report lands. This
   keeps the miss count deterministic (one miss per distinct stage, the
   same number a sequential run reports) and never burns two domains on
   the same solve. *)
type slot = Ready of Qwm.report | In_flight

type t = {
  slew_bucket : float;
  table : (string, slot) Hashtbl.t;
  (* per-key request counts: how many [run] calls asked for each key,
     hits and misses alike. The total per key is a property of the work
     submitted, not of scheduling, so it is deterministic across domain
     counts and chunk sizes — the provenance path-explain reports lean on. *)
  uses : (string, int) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(slew_bucket = 1e-12) () =
  if slew_bucket <= 0.0 then invalid_arg "Stage_cache.create: slew_bucket <= 0";
  {
    slew_bucket;
    table = Hashtbl.create 256;
    uses = Hashtbl.create 256;
    lock = Mutex.create ();
    cond = Condition.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

(* Fork: share the solve table (and its single-flight lock/condition) so
   every fork benefits from — and contributes to — the same memoized
   solves, while [uses] provenance and hit/miss stats restart
   per-fork. With [copy_uses] the fork inherits the parent's current
   per-key request counts, as if it had submitted the parent's work
   itself — the mode a server uses when handing a client a baseline
   session whose full propagation already happened. *)
let fork ?(copy_uses = false) t =
  Mutex.lock t.lock;
  let uses = if copy_uses then Hashtbl.copy t.uses else Hashtbl.create 256 in
  Mutex.unlock t.lock;
  {
    slew_bucket = t.slew_bucket;
    table = t.table;
    uses;
    lock = t.lock;
    cond = t.cond;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let slew_bucket t = t.slew_bucket

let bucket_slew t s =
  if s <= 0.0 then s
  else Float.max t.slew_bucket (Float.round (s /. t.slew_bucket) *. t.slew_bucket)

(* A scenario is pure data (stage arrays, source shapes, floats), as is a
   config, so marshalling yields a canonical byte string covering stage
   topology, device sizes, loads and (pre-bucketed) input source shapes.
   Device models contain closures and cannot be marshalled; only the
   model name enters the key, so a cache must not be shared between
   models that answer differently under the same name. The initial-bias
   vector is the one bulk-numeric field: it is hashed as its raw float64
   bits directly (the same flat encoding the timing arena digests use)
   instead of having Marshal walk a boxed float array, and spliced into
   the digest alongside the structural remainder. *)
let fingerprint ~model ~config scenario =
  let initial = scenario.Tqwm_circuit.Scenario.initial in
  let n = Array.length initial in
  let bits = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le bits (i * 8) (Int64.bits_of_float initial.(i))
  done;
  let structural =
    Marshal.to_string
      ( model.Tqwm_device.Device_model.name,
        config,
        { scenario with Tqwm_circuit.Scenario.initial = [||] } )
      []
  in
  Digest.string (structural ^ Bytes.unsafe_to_string bits)

let run t ~model ~config scenario =
  let key = fingerprint ~model ~config scenario in
  Mutex.lock t.lock;
  Hashtbl.replace t.uses key
    (1 + Option.value (Hashtbl.find_opt t.uses key) ~default:0);
  let rec claim () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready report) -> `Hit report
    | Some In_flight ->
      (* another domain is already solving this stage: wait for its
         report rather than duplicating the solve *)
      Condition.wait t.cond t.lock;
      claim ()
    | None ->
      Hashtbl.replace t.table key In_flight;
      `Solve
  in
  let claimed = claim () in
  Mutex.unlock t.lock;
  match claimed with
  | `Hit report ->
    Atomic.incr t.hits;
    Metrics.incr c_hits;
    report
  | `Solve ->
    (* each STA worker runs on its own domain, so the per-domain default
       workspace hands every single-flight solver its own preallocated
       scratch with no coordination; passing it explicitly documents that
       the cache never shares one workspace across domains *)
    let workspace = Tqwm_core.Qwm_solver.Workspace.for_current_domain () in
    (match Qwm.run ~model ~config ~workspace scenario with
    | exception e ->
      (* release the claim so waiters retry instead of hanging *)
      Mutex.lock t.lock;
      Hashtbl.remove t.table key;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      raise e
    | report ->
      Atomic.incr t.misses;
      Metrics.incr c_misses;
      Mutex.lock t.lock;
      Hashtbl.replace t.table key (Ready report);
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      report)

let peek t ~model ~config scenario =
  let key = fingerprint ~model ~config scenario in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (Ready report) -> Some report
      | Some In_flight | None -> None)

let uses t ~model ~config scenario =
  let key = fingerprint ~model ~config scenario in
  Mutex.protect t.lock (fun () ->
      Option.value (Hashtbl.find_opt t.uses key) ~default:0)

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    entries =
      Mutex.protect t.lock (fun () ->
          Hashtbl.fold
            (fun _ slot n -> match slot with Ready _ -> n + 1 | In_flight -> n)
            t.table 0);
  }

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.table;
      Hashtbl.reset t.uses;
      (* any domain waiting on an in-flight slot re-claims and solves *)
      Condition.broadcast t.cond);
  Atomic.set t.hits 0;
  Atomic.set t.misses 0
