type event = {
  name : string;
  cat : string;
  ph : char;
  ts_us : float;
  dur_us : float;  (** only meaningful for ph = 'X' *)
  tid : int;
  args : (string * Json.t) list;
}

(* The memory sink is sharded so concurrent domains never contend on a
   single mutex: each emitting domain locks only the shard picked by its
   domain id. Export takes every shard lock in turn, so a snapshot taken
   while other domains emit sees each event exactly once or not at all —
   never torn. *)
let shard_bits = 6

let num_shards = 1 lsl shard_bits

type shard = {
  slock : Mutex.t;
  mutable buf : event list;  (** reversed: newest first *)
  mutable count : int;
  cap : int;  (** max events retained in this shard; [max_int] = unbounded *)
}

type sink = Null | Memory of shard array

(* guards sink swaps; Memory emission only touches per-shard locks *)
let lock = Mutex.create ()

let sink = ref Null

(* mirrors [sink <> Null]; a single mutable bool keeps the disabled
   check on hot paths to one load + branch. Swapping the sink while
   other domains emit is benign: a racing emitter may append to the
   outgoing shard array (the event is dropped with it) or skip one
   event right after enable. *)
let on = ref false

let enabled () = !on

let epoch = Unix.gettimeofday ()

let now () = Unix.gettimeofday ()

let set s =
  Mutex.protect lock (fun () ->
      sink := s;
      on := s <> Null)

let dropped = Metrics.counter "trace.dropped_events"

let make_shards cap =
  let per_shard =
    match cap with
    | None -> max_int
    | Some n -> max 1 (n / num_shards)
  in
  Array.init num_shards (fun _ ->
      { slock = Mutex.create (); buf = []; count = 0; cap = per_shard })

let enable ?cap () = set (Memory (make_shards cap))

let disable () = set Null

let clear () =
  Mutex.protect lock (fun () ->
      match !sink with
      | Memory shards ->
          Array.iter
            (fun s ->
              Mutex.protect s.slock (fun () ->
                  s.buf <- [];
                  s.count <- 0))
            shards
      | Null -> ())

(* Ambient per-domain span context: key/value args appended to every
   event emitted while a [with_context] scope is active on the emitting
   domain. Stored in domain-local state, so scopes on different domains
   never interfere; [current_context] lets a spawner hand its scope to
   child domains. *)
let context_key : (string * Json.t) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let current_context () = Domain.DLS.get context_key

let with_context ctx f =
  if ctx = [] then f ()
  else begin
    let old = Domain.DLS.get context_key in
    Domain.DLS.set context_key (old @ ctx);
    Fun.protect ~finally:(fun () -> Domain.DLS.set context_key old) f
  end

let with_args args =
  match Domain.DLS.get context_key with [] -> args | ctx -> args @ ctx

let json_of_event e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String (String.make 1 e.ph));
      ("ts", Json.Float e.ts_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid);
    ]
  in
  let base = if e.ph = 'X' then base @ [ ("dur", Json.Float e.dur_us) ] else base in
  let base = if e.args = [] then base else base @ [ ("args", Json.Obj e.args) ] in
  Json.Obj base

let emit e =
  match !sink with
  | Null -> ()
  | Memory shards ->
      let s = shards.(e.tid land (num_shards - 1)) in
      Mutex.protect s.slock (fun () ->
          if s.count < s.cap then begin
            s.buf <- e :: s.buf;
            s.count <- s.count + 1
          end
          else Metrics.incr dropped)

let us_of_seconds t = (t -. epoch) *. 1e6

let tid () = (Domain.self () :> int)

let complete ?(args = []) ~name ~cat ~ts ~dur () =
  if !on then
    emit
      {
        name;
        cat;
        ph = 'X';
        ts_us = us_of_seconds ts;
        dur_us = dur *. 1e6;
        tid = tid ();
        args = with_args args;
      }

let instant ?(args = []) ~name ~cat () =
  if !on then
    emit
      {
        name;
        cat;
        ph = 'i';
        ts_us = us_of_seconds (now ());
        dur_us = 0.0;
        tid = tid ();
        args = with_args args;
      }

let with_span ?(args = []) ~name ~cat f =
  if not !on then f ()
  else begin
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> complete ~args ~name ~cat ~ts:t0 ~dur:(now () -. t0) ())
      f
  end

let events () =
  match !sink with
  | Memory shards ->
      let per_shard =
        Array.to_list shards
        |> List.map (fun s -> Mutex.protect s.slock (fun () -> List.rev s.buf))
      in
      List.concat per_shard
      |> List.stable_sort (fun a b -> Float.compare a.ts_us b.ts_us)
  | Null -> []

let to_json () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of_event (events ())));
      ("displayTimeUnit", Json.String "ns");
    ]

let write_file path = Json.write_file path (to_json ())
