(* eco-daemon: interactive what-if use of the timing daemon. An
   in-process server holds the decoder tree of sta-repeat as its baseline
   and serves it with two worker domains to two client domains over two
   loopback TCP connections. Each client opens a session (a fork of the
   baseline) and runs a closed loop of rounds — edit (resize one
   transistor), report, slack — plus a timing document (k = 3) every
   10th round. One operation is one round as its client sees it. Each
   client's final document must equal an in-process session with the
   same edits applied. *)

open Tqwm_sta
module Json = Tqwm_obs.Json
module Server = Tqwm_server.Server
module Client = Tqwm_server.Client
module Protocol = Tqwm_server.Protocol
module Session = Tqwm_incr.Session
module Script = Tqwm_incr.Script

let clients = 2

let workers = 2

let timing_every = 10

let baseline s = Workloads.decoder_tree ~fanout:4 ~depth:(Run.scaled ~floor:2 s 4) Run.tech

(* Each edit picks a stage and toggles the width of its enable
   transistor between 1x and 2x. Powers of two scale exactly, so the
   edits reach only a few distinct stage solves: the shared cache fills
   during set-up and then stops growing, and later rounds cost the same
   as earlier ones. *)
type editor = {
  rng : Random.State.t;
  stages : int;
  edge : int;  (** the decoder stage's enable transistor *)
  doubled : (int, unit) Hashtbl.t;  (** stages whose enable is at 2x *)
  mutable log : string list;  (** edit lines sent, latest first *)
}

let editor (s : Run.settings) ~client ~stages =
  let stage = (Tqwm_circuit.Scenario.decoder ~levels:2 Run.tech).Tqwm_circuit.Scenario.stage in
  let rec enable i =
    if stage.Tqwm_circuit.Stage.edges.(i).Tqwm_circuit.Stage.gate = Some "en" then i
    else enable (i + 1)
  in
  {
    rng = Random.State.make [| s.seed; 0xec0; client |];
    stages;
    edge = enable 0;
    doubled = Hashtbl.create 64;
    log = [];
  }

let next_edit ed =
  let stage = Random.State.int ed.rng ed.stages in
  let doubled = Hashtbl.mem ed.doubled stage in
  if doubled then Hashtbl.remove ed.doubled stage else Hashtbl.replace ed.doubled stage ();
  let line = Printf.sprintf "resize %d %d %s" stage ed.edge (if doubled then "0.5" else "2") in
  ed.log <- line :: ed.log;
  line

type client = {
  conn : Client.t;
  ed : editor;
  mutable rounds : int;
  mutable requests : int;
  mutable failed : int;
}

let request ~spans c name verb args =
  c.requests <- c.requests + 1;
  match Span.wrap spans name (fun () -> Client.request c.conn verb args) with
  | (_ : Json.t) -> ()
  | exception (Client.Server_error _ | Client.Protocol_failure _ | Unix.Unix_error _) ->
    c.failed <- c.failed + 1

(* One round, passed to [record] with its start; a timing request that
   follows it is not part of the round. *)
let round ~spans ~record c =
  let line = next_edit c.ed in
  let start = Timer.now () in
  Span.wrap_op spans "eco.round" (fun () ->
      request ~spans c "server.edit" "edit" [ ("line", Json.String line) ];
      request ~spans c "server.report" "report" [];
      request ~spans c "server.slack" "slack" []);
  record ~start;
  c.rounds <- c.rounds + 1;
  if c.rounds mod timing_every = 0 then
    Span.wrap_op spans "eco.timing" (fun () ->
        request ~spans c "server.timing" "timing" [ ("k", Json.Int 3) ])

type state = { server : Server.t; clients : client array }

let setup (s : Run.settings) () =
  let graph = baseline s in
  let stages = Timing_graph.num_stages graph in
  let server =
    Server.start ~tech:Run.tech ~graph ~workers (Protocol.Tcp (Unix.inet_addr_loopback, 0))
  in
  let clients =
    Array.init clients (fun i ->
        let c =
          {
            conn = Client.connect (Server.address server);
            ed = editor s ~client:i ~stages;
            rounds = 0;
            requests = 0;
            failed = 0;
          }
        in
        ignore (Client.request c.conn "load" []);
        ignore (Client.request c.conn "report" []);
        ignore (Client.request c.conn "slack" []);
        c)
  in
  { server; clients }

let teardown st =
  Array.iter (fun c -> Client.close c.conn) st.clients;
  Server.stop st.server

(* Every client runs rounds on its own domain until [seconds] have
   passed: the rounds of both, the seconds the phase ran, and the
   recorders of a traced phase. *)
let phase st ~traced ~seconds =
  let start = Timer.now () in
  let deadline = start +. seconds in
  let ops = Timer.Windows.create ~start ~seconds and lock = Mutex.create () in
  (* the finish time is read under the lock, so rounds arrive in order *)
  let record ~start =
    Mutex.protect lock (fun () -> Timer.Windows.record ops ~start ~stop:(Timer.now ()))
  in
  let domains =
    Array.mapi
      (fun i c ->
        Domain.spawn (fun () ->
            let spans = if traced then Some (Span.create ~lane:(i + 1)) else None in
            while Timer.now () < deadline do
              round ~spans ~record c
            done;
            spans))
      st.clients
  in
  let recorders = Array.to_list (Array.map Domain.join domains) in
  (ops, Timer.now () -. start, List.filter_map Fun.id recorders)

let null_formatter = Format.make_formatter (fun _ _ _ -> ()) ignore

(* The analysis member of an in-process session with [ed]'s edits,
   computed from scratch. *)
let offline_analysis s ed =
  let model = Tqwm_device.Models.table Run.tech in
  let session = Session.create ~model ~cache:(Stage_cache.create ()) (baseline s) in
  let interp =
    Script.Interp.create ~tech:Run.tech ~model ~session ~out:null_formatter ()
  in
  List.iter (Script.Interp.feed interp) (List.rev ed.log);
  Report.to_json (Session.graph session) (Session.scratch_analysis session)

(* ---- traced run: the same request stream in process ---- *)

(* Seconds spent replaying one client's stream in process. *)
let replay_budget = 3.0

(* Replay the first rounds of [ed]'s stream through a fork of an
   in-process baseline session, timing the library calls behind each
   verb: [Script.Interp.feed] for the edit, an explicit
   [Session.recompute], the report, [Session.required] for the slack,
   [Script.timing_json], and the wire work of [Tqwm_obs.Json] and
   [Protocol] for every request and response. *)
let in_process ~spans s ed =
  let model = Tqwm_device.Models.table Run.tech in
  let cache = Stage_cache.create () in
  let base = Session.create ~model ~cache (baseline s) in
  ignore (Session.analysis base);
  let fork_cache = Stage_cache.fork ~copy_uses:true cache in
  let session = Session.fork ~cache:fork_cache base in
  let out = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer out in
  let interp = Script.Interp.create ~tech:Run.tech ~model ~session ~out:fmt () in
  let take_output () =
    Format.pp_print_flush fmt ();
    let text = Buffer.contents out in
    Buffer.clear out;
    Json.Obj [ ("output", Json.String text) ]
  in
  let totals = Hashtbl.create 8 in
  let timed name f =
    let r, dt = Timer.time (fun () -> Span.with_span spans name f) in
    Hashtbl.replace totals name (dt +. Option.value (Hashtbl.find_opt totals name) ~default:0.0);
    r
  in
  let wire id verb args result =
    timed "obs.json" (fun () ->
        let line =
          Json.to_string (Json.Obj (("id", Json.Int id) :: ("verb", Json.String verb) :: args))
        in
        ignore (Protocol.request_of_line line);
        ignore (Json.of_string (Json.to_string (Protocol.ok ~id:(Json.Int id) result))))
  in
  let lines = Array.of_list (List.rev ed.log) in
  let deadline = Timer.now () +. replay_budget in
  let rounds = ref 0 in
  while !rounds < Array.length lines && Timer.now () < deadline do
    let line = lines.(!rounds) in
    incr rounds;
    timed "incr.apply" (fun () -> Script.Interp.feed interp line);
    wire 1 "edit" [ ("line", Json.String line) ] (take_output ());
    ignore (timed "incr.recompute" (fun () -> Session.recompute session));
    timed "incr.report" (fun () -> Script.Interp.feed interp "report");
    wire 2 "report" [] (take_output ());
    let clock_period = (Session.analysis session).Arrival.worst_arrival in
    let r = timed "incr.slack" (fun () -> Session.required session ~clock_period) in
    wire 3 "slack" []
      (Json.Obj
         [
           ("clock_period_ps", Json.Float (clock_period *. 1e12));
           ("wns_ps", Json.Float (r.Arrival.wns *. 1e12));
           ("tns_ps", Json.Float (r.Arrival.tns *. 1e12));
           ("worst_slack_ps", Json.Float (r.Arrival.req_worst_slack *. 1e12));
           ("endpoints", Json.Int (Array.length r.Arrival.endpoints));
         ]);
    if !rounds mod timing_every = 0 then begin
      let doc = timed "incr.timing" (fun () -> Script.timing_json ~k:3 session) in
      wire 4 "timing" [ ("k", Json.Int 3) ] doc
    end
  done;
  let per_round name =
    Option.value (Hashtbl.find_opt totals name) ~default:0.0 /. float_of_int (max 1 !rounds)
  in
  let stats = Session.stats session in
  let edits = float_of_int (max 1 stats.Session.edits) in
  ( per_round,
    session,
    [
      ("incr.stages_reeval_per_edit", float_of_int stats.Session.stages_reeval /. edits);
      ("incr.cutoff_hits_per_edit", float_of_int stats.Session.cutoff_hits /. edits);
      ( "sta.solves_per_edit",
        float_of_int (Stage_cache.stats fork_cache).Stage_cache.misses /. edits );
      ("sta.cache_hit_pct", 100.0 *. Stage_cache.hit_rate fork_cache);
    ] )

(* Shares of the client-observed request time of a round, counting the
   timing requests in proportion: each verb as the client sees it, and
   the same time split into the library calls replayed in process, with
   the remainder (framing, queueing, socket work) as transport. *)
let layer_metrics ~spans ~client_spans s (ed : editor) =
  let rounds = float_of_int (max 1 (Span.count client_spans "eco.round")) in
  let client name = Span.total client_spans name /. rounds in
  let verbs = [ "server.edit"; "server.report"; "server.slack"; "server.timing" ] in
  let round_time = List.fold_left (fun acc v -> acc +. client v) 0.0 verbs in
  let pct x = 100.0 *. x /. round_time in
  let per_round, session, counts = in_process ~spans s ed in
  let parts =
    [
      ("incr.apply_pct", per_round "incr.apply");
      ("incr.recompute_pct", per_round "incr.recompute");
      ("incr.report_pct", per_round "incr.report");
      ("incr.slack_pct", per_round "incr.slack");
      ("incr.timing_pct", per_round "incr.timing");
      ("obs.json_pct", per_round "obs.json");
    ]
  in
  let in_process_time = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 parts in
  let model = Tqwm_device.Models.table Run.tech in
  let graph = Session.graph session in
  let cache = Stage_cache.create () in
  let analysis, _ = Arrival.propagate_arena ~model ~cache graph in
  let distinct = Sta_runs.distinct_shaped ~model ~cache graph analysis in
  let solved, solver = Layers.solver ~spans ~model distinct in
  let _, spice = Layers.spice ~spans (Layers.reference_sample s solved) in
  List.map (fun v -> (v ^ "_pct", pct (client v))) verbs
  @ List.map (fun (name, x) -> (name, pct x)) parts
  @ [ ("server.transport_pct", pct (round_time -. in_process_time)) ]
  @ counts @ solver @ spice

let run (s : Run.settings) =
  let st, setup_s = Timer.repeat_setup ~repeats:Run.setup_repeats ~setup:(setup s) ~teardown in
  let metrics =
    match s.spans with
    | None ->
      let ops, _, _ = phase st ~traced:false ~seconds:s.seconds in
      Run.end_to_end ~setup_s ops
    | Some spans ->
      let client_spans = ref [] in
      let _, overhead =
        Run.traced_quarters ~seconds:s.seconds (fun ~traced ~seconds ->
            let ops, elapsed, recorders = phase st ~traced ~seconds in
            client_spans := recorders @ !client_spans;
            (Timer.Windows.count ops, elapsed))
      in
      overhead :: layer_metrics ~spans ~client_spans:!client_spans s st.clients.(0).ed
  in
  let documents =
    Array.map
      (fun c ->
        match Client.request c.conn "document" [] with
        | doc -> Json.member "analysis" doc
        | exception (Client.Server_error _ | Client.Protocol_failure _) -> None)
      st.clients
  in
  teardown st;
  let matches =
    Array.for_all2
      (fun c doc ->
        match doc with
        | Some analysis ->
          String.equal (Json.to_string analysis) (Json.to_string (offline_analysis s c.ed))
        | None -> false)
      st.clients documents
  in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 st.clients in
  {
    Run.attempted = sum (fun c -> c.requests);
    failed = sum (fun c -> c.failed);
    checks =
      [ ("every client's document matches an in-process session with its edits", matches) ];
    metrics;
  }
