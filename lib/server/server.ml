module Json = Tqwm_obs.Json
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Log = Tqwm_obs.Log
module Models = Tqwm_device.Models
module Timing_graph = Tqwm_sta.Timing_graph
module Stage_cache = Tqwm_sta.Stage_cache
module Arrival = Tqwm_sta.Arrival
module Path_enum = Tqwm_sta.Path_enum
module Report = Tqwm_sta.Report
module Session = Tqwm_incr.Session
module Script = Tqwm_incr.Script

let ps = 1e12

(* ---- telemetry ---- *)

let c_requests = Metrics.counter "server.requests"
let c_errors = Metrics.counter "server.errors"
let c_connections = Metrics.counter "server.connections"
let c_slow = Metrics.counter "server.slow_requests"
let g_sessions = Metrics.gauge "server.sessions"
let g_queue_depth = Metrics.gauge "server.queue_depth"
let g_start_time = Metrics.gauge "server.start_time_seconds"

(* Lower edge extends to 2 µs: introspection verbs (health, document,
   metrics) answer in single-digit microseconds on a warm server, and
   with 50 µs as the first bound every one of them landed in bucket 0 —
   p50 and p99 both degenerated to the first bound. Sub-50 µs verbs now
   spread over five buckets, so quantiles over the scrape resolve. *)
let latency_bounds =
  [|
    0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0;
    50.0; 100.0; 250.0;
  |]

(* per-verb latency histograms, pre-registered so an unknown verb never
   mints a metric name *)
let verbs =
  [
    "load"; "edit"; "script"; "report"; "query"; "timing"; "slack"; "explain";
    "document"; "metrics"; "health"; "trace"; "close";
  ]

let latency =
  List.map
    (fun v -> (v, Metrics.histogram ("server.latency_ms." ^ v) ~bounds:latency_bounds))
    verbs

(* ---- server state ---- *)

type t = {
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  tech : Tqwm_device.Tech.t;
  model : Tqwm_device.Device_model.t;
  cache : Stage_cache.t;  (** shared solve table; sessions hold forks *)
  baseline : Session.t option;
  epsilon : float;
  max_sessions : int;
  queue : Unix.file_descr Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  stopping : bool Atomic.t;
  open_conns : int Atomic.t;  (** accepted and not yet torn down *)
  started : float;  (** wall clock at [start], for uptime *)
  access_log : Log.t option;
  slow_threshold : float;  (** seconds; at or above emits a trace instant *)
  session_counter : int Atomic.t;  (** mints session ids *)
  request_counter : int Atomic.t;  (** mints request ids *)
  workers : int;
  mutable acceptor : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
  mutable stopped : bool;
}

(* the live-connection count, queued ones included: set from
   [open_conns] wherever that changes *)
let set_sessions t = Metrics.set g_sessions (float_of_int (Atomic.get t.open_conns))

(* ---- per-connection session ---- *)

type conn = {
  sid : string;  (** session id, unique per accepted connection *)
  mutable interp : Script.Interp.t option;
  outbuf : Buffer.t;
  fmt : Format.formatter;
  writer : Protocol.writer;  (** every response frame of the connection *)
}

let take_output conn =
  Format.pp_print_flush conn.fmt ();
  let s = Buffer.contents conn.outbuf in
  Buffer.clear conn.outbuf;
  s

let the_interp conn =
  match conn.interp with
  | Some i -> i
  | None -> invalid_arg "no session: send a \"load\" request first"

let int_member req name =
  match Protocol.arg req name with
  | Some (Json.Int v) -> Some v
  | Some _ -> invalid_arg (Printf.sprintf "%S must be an integer" name)
  | None -> None

let float_member req name =
  match Protocol.arg req name with
  | Some (Json.Float v) -> Some v
  | Some (Json.Int v) -> Some (float_of_int v)
  | Some _ -> invalid_arg (Printf.sprintf "%S must be a number" name)
  | None -> None

let string_member req name =
  match Protocol.arg req name with
  | Some (Json.String v) -> Some v
  | Some _ -> invalid_arg (Printf.sprintf "%S must be a string" name)
  | None -> None

(* the clock the session's timing verbs run under when the script never
   set one — the rule every offline report applies *)
let effective_clock interp session =
  match Script.Interp.clock_period interp with
  | Some cp -> cp
  | None -> Arrival.zero_slack_clock (Session.analysis session)

let do_load t conn req =
  let make_fresh () =
    Script.Interp.create ~tech:t.tech ~model:t.model
      ~cache:(Stage_cache.fork t.cache) ~epsilon:t.epsilon ~out:conn.fmt ()
  in
  let interp, baseline =
    match string_member req "graph" with
    | Some "" -> (make_fresh (), false)
    | Some spec ->
      let i = make_fresh () in
      Script.Interp.feed i ("graph " ^ spec);
      (i, false)
    | None -> (
      match t.baseline with
      | None ->
        invalid_arg
          "no baseline graph (server started without --graph); pass \"graph\""
      | Some b ->
        let session = Session.fork b in
        ( Script.Interp.create ~tech:t.tech ~model:t.model ~epsilon:t.epsilon
            ~out:conn.fmt ~session (),
          true ))
  in
  conn.interp <- Some interp;
  let stages, connections =
    if Script.Interp.has_session interp then
      let g = Session.graph (Script.Interp.session interp) in
      (Timing_graph.num_stages g, Timing_graph.num_connections g)
    else (0, 0)
  in
  Json.Obj
    [
      ("stages", Json.Int stages);
      ("connections", Json.Int connections);
      ("baseline", Json.Bool baseline);
      ("output", Json.String (take_output conn));
    ]

let do_line conn req =
  let line =
    match string_member req "line" with
    | Some l -> l
    | None -> invalid_arg "missing \"line\" (a script command)"
  in
  Script.Interp.feed (the_interp conn) line;
  Json.Obj [ ("output", Json.String (take_output conn)) ]

let do_report conn =
  Script.Interp.feed (the_interp conn) "report";
  Json.Obj [ ("output", Json.String (take_output conn)) ]

let do_query conn req =
  let get name =
    match int_member req name with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "missing %S (a stage id)" name)
  in
  let from_stage = get "from" and to_stage = get "to" in
  let s = Script.Interp.session (the_interp conn) in
  match Session.query s ~from_stage ~to_stage with
  | None -> Json.Obj [ ("found", Json.Bool false) ]
  | Some q ->
    Json.Obj
      [
        ("found", Json.Bool true);
        ("arrival_ps", Json.Float (q.Session.arrival *. ps));
        ("stages", Json.List (List.map (fun i -> Json.Int i) q.Session.stages));
      ]

let do_timing conn req =
  let k = Option.value (int_member req "k") ~default:1 in
  let interp = the_interp conn in
  Script.timing_json
    ?clock_period:(Script.Interp.clock_period interp)
    ~k
    (Script.Interp.session interp)

let do_slack conn req =
  let interp = the_interp conn in
  let s = Script.Interp.session interp in
  let clock_period =
    match float_member req "clock_period_ps" with
    | Some p when Float.is_finite p && p > 0.0 -> p *. 1e-12
    | Some _ -> invalid_arg "\"clock_period_ps\" must be finite and > 0"
    | None -> effective_clock interp s
  in
  let r = Session.required s ~clock_period in
  Json.Obj
    [
      ("clock_period_ps", Json.Float (clock_period *. ps));
      ("wns_ps", Json.Float (r.Arrival.wns *. ps));
      ("tns_ps", Json.Float (r.Arrival.tns *. ps));
      ("worst_slack_ps", Json.Float (r.Arrival.req_worst_slack *. ps));
      ("endpoints", Json.Int (Array.length r.Arrival.endpoints));
    ]

(* the critical cone into one pin, reported as a single-path
   [tqwm-report/1] document: walk the critical-fanin chain backward from
   the pin, then attribute it stage by stage through the session's own
   cached solves *)
let do_explain conn req =
  let pin =
    match int_member req "pin" with
    | Some p -> p
    | None -> invalid_arg "missing \"pin\" (a stage id)"
  in
  let interp = the_interp conn in
  let s = Script.Interp.session interp in
  let graph = Session.graph s in
  let analysis = Session.analysis s in
  let n = Array.length analysis.Arrival.timings in
  if pin < 0 || pin >= n then
    invalid_arg (Printf.sprintf "\"pin\" %d out of range (graph has %d stages)" pin n);
  let rec walk acc id =
    match analysis.Arrival.timings.(id).Arrival.critical_fanin with
    | None -> id :: acc
    | Some driver -> walk (id :: acc) driver
  in
  let stages = walk [] pin in
  let clock_period = effective_clock interp s in
  let arrival = analysis.Arrival.timings.(pin).Arrival.arrival_out in
  let path = { Path_enum.stages; arrival; slack = clock_period -. arrival } in
  let explained = Session.explain s path in
  let required = Session.required s ~clock_period in
  Report.timing_to_json graph analysis required [ explained ]

(* ---- liveness (health verb) ---- *)

let do_health t =
  Json.Obj
    [
      ("ready", Json.Bool (not (Atomic.get t.stopping)));
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("sessions", Json.Int (Atomic.get t.open_conns));
      ("max_sessions", Json.Int t.max_sessions);
      ("workers", Json.Int t.workers);
      ("tracing", Json.Bool (Trace.enabled ()));
      ("access_log", Json.Bool (t.access_log <> None));
    ]

let dispatch t conn req =
  match req.Protocol.verb with
  | "load" -> `Reply (do_load t conn req)
  | "edit" | "script" -> `Reply (do_line conn req)
  | "report" -> `Reply (do_report conn)
  | "query" -> `Reply (do_query conn req)
  | "timing" -> `Reply (do_timing conn req)
  | "slack" -> `Reply (do_slack conn req)
  | "explain" -> `Reply (do_explain conn req)
  | "document" -> `Reply (Script.Interp.document (the_interp conn))
  | "metrics" -> `Reply (Metrics.snapshot ())
  | "health" -> `Reply (do_health t)
  | "trace" -> `Reply (Trace.to_json ())
  | "close" -> `Close (Json.Obj [ ("closed", Json.Bool true) ])
  | verb -> `Unknown verb

let mint_rid t sid =
  Printf.sprintf "%s.r%d" sid (Atomic.fetch_and_add t.request_counter 1 + 1)

let access t ~t0 ~rid ~sid ~verb ~outcome ~bytes_in ~bytes_out ~latency_s =
  match t.access_log with
  | None -> ()
  | Some log ->
    Log.write log
      [
        ("ts", Json.Float t0);
        ("request", Json.String rid);
        ("session", Json.String sid);
        ("verb", Json.String verb);
        ("outcome", Json.String outcome);
        ("bytes_in", Json.Int bytes_in);
        ("bytes_out", Json.Int bytes_out);
        ("latency_us", Json.Float (latency_s *. 1e6));
      ]

let handle_request t conn req ~bytes_in =
  let id = req.Protocol.id in
  let t0 = Unix.gettimeofday () in
  (* request ids are only minted when something will record them, so the
     all-telemetry-off request path stays allocation-identical to PR 8 *)
  let observed = Trace.enabled () || t.access_log <> None in
  let rid = if observed then mint_rid t conn.sid else "" in
  let ctx =
    if Trace.enabled () then
      [ ("request", Json.String rid); ("session", Json.String conn.sid) ]
    else []
  in
  Trace.with_context ctx @@ fun () ->
  let response, closing, outcome =
    Trace.with_span ~name:"server.request" ~cat:"server"
      ~args:[ ("verb", Json.String req.Protocol.verb) ]
    @@ fun () ->
    match dispatch t conn req with
    | `Reply result -> (Protocol.ok ~id result, false, "ok")
    | `Close result -> (Protocol.ok ~id result, true, "ok")
    | `Unknown verb ->
      Metrics.incr c_errors;
      ( Protocol.error ~id ~code:"unknown_verb"
          (Printf.sprintf "unknown verb %S" verb),
        false,
        "unknown_verb" )
    | exception
        (Script.Script_error { line = _; message } | Arrival.Analysis_failure message) ->
      (* the command failed; the session survives *)
      Metrics.incr c_errors;
      (Protocol.error ~id ~code:"script_error" message, false, "script_error")
    | exception Invalid_argument message ->
      Metrics.incr c_errors;
      (Protocol.error ~id ~code:"bad_request" message, false, "bad_request")
    | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
      (* transport trouble: let the connection loop tear down *)
      raise e
    | exception e ->
      Metrics.incr c_errors;
      (Protocol.error ~id ~code:"internal" (Printexc.to_string e), false, "internal")
  in
  Metrics.incr c_requests;
  (* GC counters are per-domain and handler domains are long-lived: fold
     this domain's growth into the shared counters while the request is
     still the hot context *)
  Tqwm_obs.Alloc.flush_domain ();
  let bytes_out = Protocol.write_frame conn.writer response in
  let dt = Unix.gettimeofday () -. t0 in
  (match List.assoc_opt req.Protocol.verb latency with
  | Some h -> Metrics.observe h (dt *. 1e3)
  | None -> ());
  if dt >= t.slow_threshold then begin
    Metrics.incr c_slow;
    Trace.instant ~name:"server.slow_request" ~cat:"server"
      ~args:
        [
          ("verb", Json.String req.Protocol.verb);
          ("latency_ms", Json.Float (dt *. 1e3));
        ]
      ()
  end;
  if observed then
    access t ~t0 ~rid ~sid:conn.sid ~verb:req.Protocol.verb ~outcome ~bytes_in
      ~bytes_out ~latency_s:dt;
  if closing then `Close else `Continue

let serve_connection t fd =
  Metrics.incr c_connections;
  let finally () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Atomic.decr t.open_conns;
    set_sessions t
  in
  Fun.protect ~finally @@ fun () ->
  let sid =
    Printf.sprintf "s%d" (Atomic.fetch_and_add t.session_counter 1 + 1)
  in
  let outbuf = Buffer.create 256 in
  let conn =
    {
      sid;
      interp = None;
      outbuf;
      fmt = Format.formatter_of_buffer outbuf;
      writer = Protocol.writer fd;
    }
  in
  let reader = Protocol.reader fd in
  (* frames that never became requests still get an access-log line
     (verb "-"); [bytes_in] is what the frame put on the wire, 0 when
     the oversized line was discarded unmeasured *)
  let reject ~code ~bytes_in message =
    Metrics.incr c_errors;
    let t0 = Unix.gettimeofday () in
    let rid = if t.access_log <> None then mint_rid t sid else "" in
    let bytes_out =
      Protocol.write_frame conn.writer (Protocol.error ~id:Json.Null ~code message)
    in
    access t ~t0 ~rid ~sid ~verb:"-" ~outcome:code ~bytes_in ~bytes_out
      ~latency_s:(Unix.gettimeofday () -. t0)
  in
  let rec loop () =
    match Protocol.read_frame reader with
    | Protocol.Eof -> ()
    | Protocol.Oversized ->
      reject ~code:"oversized_line" ~bytes_in:0
        (Printf.sprintf "request line exceeds %d bytes" Protocol.max_line_bytes);
      loop ()
    | Protocol.Line 0 -> loop ()
    | Protocol.Line len -> (
      let bytes_in = len + 1 in
      match Protocol.request_of_frame reader with
      | Error message ->
        reject ~code:"parse_error" ~bytes_in message;
        loop ()
      | Ok req -> (
        match handle_request t conn req ~bytes_in with
        | `Continue -> loop ()
        | `Close -> ()))
  in
  (* a vanished client is a normal way for a session to end *)
  try loop () with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()

(* ---- accept / worker loops ---- *)

let enqueue t fd =
  Mutex.lock t.qlock;
  Queue.push fd t.queue;
  Metrics.set g_queue_depth (float_of_int (Queue.length t.queue));
  Condition.signal t.qcond;
  Mutex.unlock t.qlock

let dequeue t =
  Mutex.lock t.qlock;
  let rec wait () =
    match Queue.take_opt t.queue with
    | Some fd ->
      Metrics.set g_queue_depth (float_of_int (Queue.length t.queue));
      Some fd
    | None ->
      if Atomic.get t.stopping then None
      else begin
        Condition.wait t.qcond t.qlock;
        wait ()
      end
  in
  let r = wait () in
  Mutex.unlock t.qlock;
  r

(* poll-accept: closing a descriptor does not wake a sibling domain
   blocked in accept(2), so the acceptor must never block indefinitely —
   it selects with a timeout and rechecks the stop flag each lap *)
let rec accept_loop t =
  if Atomic.get t.stopping then ()
  else
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | [], _, _ -> accept_loop t
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop t
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
    | _ -> accept_ready t

and accept_ready t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) ->
    accept_loop t
  | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
    if Atomic.get t.stopping then () else accept_loop t
  | fd, _ ->
    if Atomic.get t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
    else begin
      let n = Atomic.fetch_and_add t.open_conns 1 in
      if n >= t.max_sessions then begin
        Atomic.decr t.open_conns;
        Metrics.incr c_errors;
        (try
           ignore
             (Protocol.write_line fd
                (Protocol.error ~id:Json.Null ~code:"server_full"
                   (Printf.sprintf "session limit %d reached" t.max_sessions)))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        set_sessions t;
        enqueue t fd
      end;
      accept_loop t
    end

let worker_loop t =
  let rec loop () =
    match dequeue t with
    | None -> ()
    | Some fd ->
      serve_connection t fd;
      loop ()
  in
  loop ()

let start ~tech ?graph ?(workers = 1) ?(epsilon = 0.0)
    ?(max_sessions = 64) ?access_log ?(slow_threshold = 0.25) address =
  if workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if max_sessions < 1 then invalid_arg "Server.start: max_sessions must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let model = Models.table tech in
  let cache = Stage_cache.create () in
  let baseline =
    Option.map
      (fun g ->
        let s = Session.create ~model ~cache ~epsilon g in
        (* warm once: forks start from computed arrivals and a full table *)
        ignore (Session.analysis s);
        s)
      graph
  in
  let domain, sockaddr =
    match address with
    | Protocol.Unix_sock _ as a -> (Unix.PF_UNIX, Protocol.sockaddr_of_address a)
    | Protocol.Tcp _ as a -> (Unix.PF_INET, Protocol.sockaddr_of_address a)
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd sockaddr;
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      listen_fd;
      bound = Unix.getsockname listen_fd;
      tech;
      model;
      cache;
      baseline;
      epsilon;
      max_sessions;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = Atomic.make false;
      open_conns = Atomic.make 0;
      started = Unix.gettimeofday ();
      access_log = Option.map Log.open_file access_log;
      slow_threshold;
      session_counter = Atomic.make 0;
      request_counter = Atomic.make 0;
      workers;
      acceptor = None;
      worker_domains = [];
      stopped = false;
    }
  in
  Metrics.set g_start_time t.started;
  t.worker_domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let address t = Protocol.string_of_sockaddr t.bound

let active_sessions t = Atomic.get t.open_conns

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Mutex.lock t.qlock;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qlock;
    (match t.acceptor with Some d -> Domain.join d | None -> ());
    List.iter Domain.join t.worker_domains;
    Option.iter Log.close t.access_log;
    (* connections accepted but never picked up *)
    Mutex.lock t.qlock;
    Queue.iter
      (fun fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Atomic.decr t.open_conns)
      t.queue;
    Queue.clear t.queue;
    Metrics.set g_queue_depth 0.0;
    Mutex.unlock t.qlock;
    set_sessions t;
    match t.bound with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Unix.ADDR_INET _ -> ()
  end
