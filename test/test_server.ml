(* Tests for the timing daemon: a server session must be byte-identical
   to an offline [qwm_sim --incr] replay of the same commands,
   concurrent sessions must be fully isolated from each other and from
   the shared baseline, and malformed input of every kind must produce a
   structured error without killing the daemon or leaking its slot. *)

open Tqwm_device
module Json = Tqwm_obs.Json
module Script = Tqwm_incr.Script
module Protocol = Tqwm_server.Protocol
module Server = Tqwm_server.Server
module Client = Tqwm_server.Client

let tech = Tech.cmosp35

let table = lazy (Models.table tech)

let with_server ?graph ?(workers = 2) ?max_sessions ?access_log ?slow_threshold
    f =
  let path = Filename.temp_file "tqwm-test-server" ".sock" in
  Sys.remove path;
  let server =
    Server.start ~tech ?graph ~workers ?max_sessions ?access_log
      ?slow_threshold (Protocol.Unix_sock path)
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let check_json what expected actual =
  Alcotest.(check string) what (Json.to_string expected) (Json.to_string actual)

let error_code resp =
  match Json.member "error" resp with
  | Some err -> (
    match Json.member "code" err with
    | Some (Json.String code) -> code
    | _ -> Alcotest.failf "error without a code: %s" (Json.to_string resp))
  | None -> Alcotest.failf "expected an error response: %s" (Json.to_string resp)

(* the offline oracle: [Script.run] plus [Script.timing_json], exactly
   what [qwm_sim --incr SCRIPT --json --timing-json] writes *)
let offline_replay ?(k = 1) text =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let outcome = Script.run ~tech ~model:(Lazy.force table) ~out:fmt text in
  Format.pp_print_flush fmt ();
  let timing =
    match outcome.Script.clock_period with
    | None -> None
    | Some clock_period ->
      Some (Script.timing_json ~clock_period ~k outcome.Script.session)
  in
  (Buffer.contents buf, outcome.Script.json, timing)

let eco_script =
  "graph decoder 3 2\n\
   clock 700\n\
   report\n\
   resize 0 0 1.5\n\
   load 4 12e-15\n\
   report\n\
   retime 0 4 25\n\
   swap 7 decoder3\n\
   report\n\
   timing 2\n\
   query 0 12\n"

(* The committed eco goldens pin the documents across commits, not just
   between transports. examples/eco_session.script run offline, as
   [qwm_sim --incr SCRIPT --json F --timing-json G] runs it (its defaults:
   cached, one domain, exact cutoff, timing k = 1), and replayed through
   a live daemon, as [qwm_client --replay] does, must both reproduce the
   golden bytes; [Json.write_file] writes [Json.to_string] and a newline. *)
let test_eco_golden_bytes () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let script = "../examples/eco_session.script" in
  let golden_incr = read "golden/eco-offline-incr.json"
  and golden_timing = read "golden/eco-offline-timing.json" in
  let check_bytes what golden doc =
    Alcotest.(check string) what golden (Json.to_string doc ^ "\n")
  in
  let offline =
    Script.run_file ~tech ~model:(Lazy.force table)
      ~out:(Format.formatter_of_buffer (Buffer.create 256))
      script
  in
  Schema.incr_report "golden/eco-offline-incr.json" (Json.of_string golden_incr);
  Schema.timing_report "golden/eco-offline-timing.json" (Json.of_string golden_timing);
  check_bytes "offline incr document" golden_incr offline.Script.json;
  check_bytes "offline timing document" golden_timing
    (Script.timing_json ?clock_period:offline.Script.clock_period ~k:1
       offline.Script.session);
  with_server (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let replayed = Client.replay ~k:1 c (read script) in
          check_bytes "daemon incr document" golden_incr replayed.Client.document;
          match replayed.Client.timing with
          | Some timing -> check_bytes "daemon timing document" golden_timing timing
          | None -> Alcotest.fail "daemon replay returned no timing document"))

(* Replaying a script through a live daemon must produce the same
   progress text, the same [tqwm-incr-report/1] document and the same
   [tqwm-report/1] timing document as the offline run — byte for
   byte. *)
let test_replay_identity () =
  with_server (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let replayed = Client.replay ~k:2 c eco_script in
          let output, document, timing = offline_replay ~k:2 eco_script in
          Alcotest.(check string) "progress text" output replayed.Client.output;
          check_json "incr document" document replayed.Client.document;
          match (timing, replayed.Client.timing) with
          | Some offline, Some served ->
            check_json "timing document" offline served
          | None, _ | _, None ->
            Alcotest.fail "script sets a clock: both replays must emit timing"))

(* Two sessions forked from the same baseline apply conflicting edits to
   the same stage; each must see only its own edit — equal to its own
   single-session offline replay — and a third fork must still see the
   pristine baseline. *)
let test_session_isolation () =
  let graph = Script.graph_of_spec ~tech "decoder 3 2" in
  with_server ~graph (fun server ->
      let addr = Server.address server in
      let feed c line =
        ignore (Client.request c "script" [ ("line", Json.String line) ])
      in
      let timing c = Client.request c "timing" [ ("k", Json.Int 2) ] in
      (* the oracle replays the fork's life: a warm baseline (the
         [report] before the edits — server forks copy the baseline's
         computed analysis and cache attribution), then the edits *)
      let offline edits =
        let _, _, timing =
          offline_replay ~k:2
            ("graph decoder 3 2\nclock 800\nreport\n" ^ edits ^ "report\n")
        in
        Option.get timing
      in
      let c1 = Client.connect addr and c2 = Client.connect addr in
      let t1, t2 =
        Fun.protect
          ~finally:(fun () ->
            Client.close c1;
            Client.close c2)
          (fun () ->
            ignore (Client.request c1 "load" []);
            ignore (Client.request c2 "load" []);
            feed c1 "clock 800";
            feed c2 "clock 800";
            (* interleaved conflicting edits to stage 0 *)
            feed c1 "resize 0 0 1.5";
            feed c2 "resize 0 0 0.6";
            feed c1 "report";
            feed c2 "report";
            (timing c1, timing c2))
      in
      check_json "session 1 = its own offline replay"
        (offline "resize 0 0 1.5\n") t1;
      check_json "session 2 = its own offline replay"
        (offline "resize 0 0 0.6\n") t2;
      Alcotest.(check bool)
        "conflicting edits diverge" false
        (Json.to_string t1 = Json.to_string t2);
      (* the shared baseline is unmodified: a fresh fork times like an
         edit-free offline run *)
      let c3 = Client.connect addr in
      let t3 =
        Fun.protect
          ~finally:(fun () -> Client.close c3)
          (fun () ->
            ignore (Client.request c3 "load" []);
            feed c3 "clock 800";
            feed c3 "report";
            timing c3)
      in
      check_json "baseline fork untouched by other sessions" (offline "") t3)

let wait_drained server =
  let rec loop tries =
    if Server.active_sessions server = 0 then ()
    else if tries = 0 then
      Alcotest.failf "leaked session slots: %d still open"
        (Server.active_sessions server)
    else (
      Unix.sleepf 0.02;
      loop (tries - 1))
  in
  loop 250

(* Malformed JSON, unknown verbs, oversized lines, failing script
   commands and mid-request disconnects: each yields a structured error
   (or a clean teardown) and the daemon keeps serving with no leaked
   session slot. *)
let test_protocol_robustness () =
  with_server (fun server ->
      let addr = Server.address server in
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send_line c "this is not json";
          (match Client.recv_response c with
          | Some resp ->
            Alcotest.(check string) "malformed JSON" "parse_error"
              (error_code resp)
          | None -> Alcotest.fail "connection died on malformed JSON");
          (match
             Client.request_raw c
               (Json.Obj
                  [ ("id", Json.Int 1); ("verb", Json.String "frobnicate") ])
           with
          | Some resp ->
            Alcotest.(check string) "unknown verb" "unknown_verb"
              (error_code resp)
          | None -> Alcotest.fail "connection died on unknown verb");
          Client.send_line c (String.make (Protocol.max_line_bytes + 16) 'x');
          (match Client.recv_response c with
          | Some resp ->
            Alcotest.(check string) "oversized line" "oversized_line"
              (error_code resp)
          | None -> Alcotest.fail "connection died on oversized line");
          (* the same connection is still usable after all three *)
          ignore (Client.request c "load" [ ("graph", Json.String "chain 4") ]);
          (* a failing command errors but leaves the session alive *)
          (try
             ignore
               (Client.request c "script"
                  [ ("line", Json.String "resize 99 0 1.5") ]);
             Alcotest.fail "resize of a bogus stage must fail"
           with Client.Server_error { code; _ } ->
             Alcotest.(check string) "failing command" "script_error" code);
          ignore (Client.request c "report" []);
          (* a stage the analysis cannot time fails every verb that needs
             the analysis as a script error, and the session survives: a
             1 ns ramp leaves the inverter no conducting path in its
             400 ps window *)
          ignore (Client.request c "load" [ ("graph", Json.String "") ]);
          List.iter
            (fun line -> ignore (Client.request c "script" [ ("line", Json.String line) ]))
            [ "stage inv"; "retime 0 0 1000" ];
          List.iter
            (fun (verb, args) ->
              try
                ignore (Client.request c verb args);
                Alcotest.failf "%s must fail on an untimeable stage" verb
              with Client.Server_error { code; _ } ->
                Alcotest.(check string) ("untimeable stage: " ^ verb) "script_error" code)
            [
              ("report", []);
              ("timing", []);
              ("slack", []);
              ("explain", [ ("pin", Json.Int 0) ]);
              ("query", [ ("from", Json.Int 0); ("to", Json.Int 0) ]);
              ("document", []);
            ];
          ignore (Client.request c "script" [ ("line", Json.String "retime 0 0 0") ]);
          ignore (Client.request c "report" []);
          (* missing arguments are a structured bad_request *)
          try
            ignore (Client.request c "query" []);
            Alcotest.fail "query without from/to must fail"
          with Client.Server_error { code; _ } ->
            Alcotest.(check string) "missing argument" "bad_request" code);
      (* mid-request disconnect: ship half a request, hang up *)
      let sockaddr = Protocol.sockaddr_of_address (Protocol.parse_address addr) in
      let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
      Unix.connect fd sockaddr;
      let partial = "{\"verb\":\"load\"" in
      ignore (Unix.write_substring fd partial 0 (String.length partial));
      Unix.close fd;
      (* the daemon shrugged it off and still serves new sessions *)
      let c2 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c2)
        (fun () ->
          ignore (Client.request c2 "load" [ ("graph", Json.String "chain 2") ]);
          ignore (Client.request c2 "report" []));
      wait_drained server)

(* Beyond [max_sessions], a new connection is answered with a
   [server_full] error and closed — and the slot frees once an existing
   session disconnects. *)
let test_session_cap () =
  with_server ~workers:1 ~max_sessions:1 (fun server ->
      let addr = Server.address server in
      let c1 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c1)
        (fun () ->
          ignore (Client.request c1 "load" [ ("graph", Json.String "chain 2") ]);
          let c2 = Client.connect addr in
          (match Client.recv_response c2 with
          | Some resp ->
            Alcotest.(check string) "over the cap" "server_full"
              (error_code resp)
          | None -> Alcotest.fail "no server_full response");
          Client.close c2);
      wait_drained server;
      (* the slot is free again *)
      let c3 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c3)
        (fun () ->
          ignore (Client.request c3 "load" [ ("graph", Json.String "chain 2") ])))

(* ---------- observability: health / trace / access log ---------- *)

module Trace = Tqwm_obs.Trace
module Metrics = Tqwm_obs.Metrics

(* [server.sessions] counts a connection from its admission, as
   [health]'s [sessions] does: with the one worker busy serving the
   first client, the second client waits in the queue and is counted. *)
let test_sessions_gauge_counts_queued () =
  let sessions () = Metrics.find_gauge "server.sessions" in
  let wait_for expected =
    let rec loop tries =
      match sessions () with
      | Some v when v = expected -> ()
      | got when tries = 0 ->
        Alcotest.failf "server.sessions reads %s, expected %g"
          (match got with Some v -> Printf.sprintf "%g" v | None -> "nothing")
          expected
      | Some _ | None ->
        Unix.sleepf 0.02;
        loop (tries - 1)
    in
    loop 250
  in
  with_server ~workers:1 (fun server ->
      let addr = Server.address server in
      let served = Client.connect addr in
      let queued = ref None in
      (* closing both lets the worker, and so [Server.stop], finish even
         when a check fails *)
      Fun.protect
        ~finally:(fun () ->
          Client.close served;
          Option.iter Client.close !queued)
        (fun () ->
          ignore (Client.health served);
          queued := Some (Client.connect addr);
          wait_for 2.0);
      wait_for 0.0)

let test_health_verb () =
  with_server ~workers:2 (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let h = Client.health c in
          Alcotest.(check bool) "ready" true
            (Schema.field "health" "ready" h = Json.Bool true);
          Alcotest.(check bool) "own session counted" true
            (Schema.number "health" "sessions" h >= 1.0);
          Alcotest.(check bool) "workers reported" true
            (Schema.field "health" "workers" h = Json.Int 2);
          Alcotest.(check bool) "uptime non-negative" true
            (Schema.number "health" "uptime_s" h >= 0.0);
          (* neither observability feature is on in this server *)
          Alcotest.(check bool) "tracing off" true
            (Schema.field "health" "tracing" h = Json.Bool false);
          Alcotest.(check bool) "no access log" true
            (Schema.field "health" "access_log" h = Json.Bool false)))

(* The tentpole property end to end: with tracing on, a served edit +
   report recomputation emits [sta.stage] solve spans on worker domains,
   every one carrying the request and session ids of the triggering
   request. *)
let test_trace_verb_request_scoped () =
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
  @@ fun () ->
  with_server (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (Client.request c "load" [ ("graph", Json.String "decoder 3 2") ]);
          Trace.clear ();
          (* the edit dirties stage 0; the report forces the recompute *)
          ignore
            (Client.request c "script"
               [ ("line", Json.String "resize 0 0 1.5") ]);
          ignore (Client.request c "report" []);
          let doc = Client.request c "trace" [] in
          let events =
            match Json.member "traceEvents" doc with
            | Some (Json.List events) -> events
            | _ -> Alcotest.fail "trace verb returned no traceEvents"
          in
          let arg name e =
            Option.bind (Json.member "args" e) (Json.member name)
          in
          let stage_events =
            List.filter
              (fun e -> Json.member "cat" e = Some (Json.String "sta.stage"))
              events
          in
          if stage_events = [] then
            Alcotest.fail "recompute emitted no sta.stage spans";
          List.iter
            (fun e ->
              match (arg "request" e, arg "session" e) with
              | Some (Json.String rid), Some (Json.String sid) ->
                if not (String.starts_with ~prefix:(sid ^ ".r") rid) then
                  Alcotest.failf "request id %S not scoped to session %S" rid
                    sid
              | _ ->
                Alcotest.failf "untagged stage span: %s" (Json.to_string e))
            stage_events;
          (* distinct requests got distinct ids *)
          let rids =
            List.sort_uniq compare
              (List.filter_map (fun e ->
                   match arg "request" e with
                   | Some (Json.String rid) -> Some rid
                   | _ -> None)
                 (List.filter
                    (fun e ->
                      Json.member "name" e
                      = Some (Json.String "server.request"))
                    events))
          in
          (* the script and report requests (the trace request's own span
             only completes after the document was captured) *)
          Alcotest.(check bool)
            (Printf.sprintf "one id per request (got %d)" (List.length rids))
            true
            (List.length rids >= 2)))

let test_access_log () =
  let log_path = Filename.temp_file "tqwm-test-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
  @@ fun () ->
  with_server ~access_log:log_path ~slow_threshold:0.0 (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (Client.request c "load" [ ("graph", Json.String "chain 4") ]);
          ignore (Client.request c "report" []);
          (try
             ignore (Client.request c "frobnicate" [])
           with Client.Server_error _ -> ());
          Client.send_line c "not json";
          match Client.recv_response c with
          | Some _ -> ()
          | None -> Alcotest.fail "connection died on malformed JSON"));
  (* read back after Server.stop closed the log *)
  let fields_of_line line =
    match Json.of_string line with
    | Json.Obj fields -> fields
    | _ -> Alcotest.failf "access-log line is not an object: %s" line
  in
  let ic = open_in log_path in
  let records = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then records := fields_of_line line :: !records
     done
   with End_of_file -> close_in ic);
  let records = List.rev !records in
  if List.length records < 4 then
    Alcotest.failf "expected >= 4 access records, got %d" (List.length records);
  let expected_fields =
    [ "ts"; "request"; "session"; "verb"; "outcome"; "bytes_in"; "bytes_out";
      "latency_us" ]
  in
  List.iter
    (fun fields ->
      Alcotest.(check (list string))
        "closed record shape" expected_fields (List.map fst fields);
      match List.assoc "request" fields with
      | Json.String rid ->
        (match List.assoc "session" fields with
        | Json.String sid ->
          Alcotest.(check bool)
            (Printf.sprintf "request id %s scoped to session %s" rid sid)
            true
            (String.starts_with ~prefix:(sid ^ ".r") rid)
        | _ -> Alcotest.fail "session is not a string")
      | _ -> Alcotest.fail "request is not a string")
    records;
  let outcomes =
    List.filter_map
      (fun fields ->
        match List.assoc "outcome" fields with
        | Json.String o -> Some o
        | _ -> None)
      records
  in
  List.iter
    (fun o ->
      Alcotest.(check bool) (o ^ " logged") true (List.mem o outcomes))
    [ "ok"; "unknown_verb"; "parse_error" ];
  (* the parse error could not name a verb *)
  List.iter
    (fun fields ->
      if List.assoc "outcome" fields = Json.String "parse_error" then
        Alcotest.(check bool) "unparsed frame logs verb -" true
          (List.assoc "verb" fields = Json.String "-"))
    records

(* One daemon with tracing and an access log, two clients editing,
   reporting and reading slack at once: every request, [close]
   included, leaves one whole access-log record of the closed shape,
   and each record's request id names a traced [server.request] span. *)
let test_traced_clients_share_the_log () =
  let log_path = Filename.temp_file "tqwm-test-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
  @@ fun () ->
  Trace.enable ();
  let requests, trace =
    Fun.protect ~finally:Trace.disable @@ fun () ->
    with_server ~graph:(Script.graph_of_spec ~tech "decoder 3 2") ~access_log:log_path
      ~slow_threshold:0.0
      (fun server ->
        let run_client idx =
          let c = Client.connect (Server.address server) in
          let sent = ref 1 (* the [close] of [Client.close] *) in
          let send verb args =
            ignore (Client.request c verb args);
            incr sent
          in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              send "load" [];
              for round = 1 to 3 do
                let line = Printf.sprintf "resize %d 0 1.2" ((idx + (3 * round)) mod 13) in
                send "edit" [ ("line", Json.String line) ];
                send "report" [];
                send "slack" [ ("clock_period_ps", Json.Float 900.0) ]
              done);
          !sent
        in
        let clients = List.init 2 (fun idx -> Domain.spawn (fun () -> run_client idx)) in
        let requests = List.fold_left ( + ) 0 (List.map Domain.join clients) in
        wait_drained server;
        (requests, Json.of_string (Json.to_string (Trace.to_json ()))))
  in
  Schema.trace "trace" trace;
  let events = Schema.list "trace" "traceEvents" trace in
  if events = [] then Alcotest.fail "the traced daemon captured no trace events";
  let traced =
    List.filter_map
      (fun e ->
        match (Json.member "name" e, Option.bind (Json.member "args" e) (Json.member "request")) with
        | Some (Json.String "server.request"), Some (Json.String rid) -> Some rid
        | _ -> None)
      events
  in
  let lines =
    In_channel.with_open_bin log_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one access-log line per request" requests (List.length lines);
  List.iteri
    (fun i line ->
      let ctx = Printf.sprintf "access log line %d" (i + 1) in
      let record = Json.of_string line in
      Schema.access_record ctx record;
      let rid = Schema.string ctx "request" record in
      if not (List.mem rid traced) then
        Alcotest.failf "%s: request %s has no server.request span" ctx rid)
    lines

(* ---------- frames: parsed in place, written through one writer ---------- *)

(* What parsing gives: the value printed back, or the error text. *)
let parse_outcome parse =
  match parse () with
  | v -> Ok (Json.to_string v)
  | exception Json.Parse_error msg -> Error msg

let request_outcome = function
  | Ok req -> Ok (Json.to_string req.Protocol.id ^ " " ^ req.Protocol.verb)
  | Error msg -> Error msg

(* Frames sent through one writer arrive in one reader's buffer, each
   after the others, so all but the first are parsed at a non-zero
   position; each must parse, and fail, as its line alone does. The
   large frame leaves the writer in more than one 64 KiB chunk. *)
let test_frames_in_place () =
  let lines =
    [
      "{\"id\":1,\"verb\":\"health\"}"; "{}x"; "\"abc"; "{\"a\":1"; "\"\\u1_2f\""; "01"; "1.";
      "1e999"; "[1,2"; "{\"verb\":\"\"}"; "{\"id\":[true,null],\"verb\":\"report\"}"; "7";
    ]
  in
  let large = Json.List (List.init 20_000 (fun i -> Json.Float (float_of_int i *. 1.1e-12))) in
  let large_line = Json.to_string large in
  let sent_fd, read_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let sender =
    Domain.spawn (fun () ->
        let w = Protocol.writer sent_fd in
        let raw = List.map (Protocol.write_raw w) lines in
        let framed = Protocol.write_frame w large in
        let last = Protocol.write_raw w (List.hd lines) in
        Unix.close sent_fd;
        (raw, framed, last))
  in
  let r = Protocol.reader read_fd in
  Fun.protect ~finally:(fun () -> Unix.close read_fd) @@ fun () ->
  let next what line =
    match Protocol.read_frame r with
    | Protocol.Line len ->
      Alcotest.(check int) (what ^ ": frame length") (String.length line) len;
      Alcotest.(check (result string string))
        (what ^ ": parsed in place")
        (parse_outcome (fun () -> Json.of_string line))
        (parse_outcome (fun () -> Protocol.frame_json r));
      Alcotest.(check (result string string))
        (what ^ ": as a request")
        (request_outcome (Protocol.request_of_line line))
        (request_outcome (Protocol.request_of_frame r))
    | Protocol.Oversized -> Alcotest.failf "%s: oversized" what
    | Protocol.Eof -> Alcotest.failf "%s: end of input" what
  in
  List.iter (fun line -> next (Printf.sprintf "%S" line) line) lines;
  next "large frame" large_line;
  next "after the large frame" (List.hd lines);
  (match Protocol.read_frame r with
  | Protocol.Eof -> ()
  | Protocol.Line _ | Protocol.Oversized -> Alcotest.fail "a frame past the last one");
  let raw, framed, last = Domain.join sender in
  Alcotest.(check (list int)) "bytes written, newline included"
    (List.map (fun l -> String.length l + 1) lines)
    raw;
  Alcotest.(check int) "large frame bytes" (String.length large_line + 1) framed;
  Alcotest.(check bool) "large frame spans chunks" true (framed > 65536);
  Alcotest.(check int) "last frame bytes" (String.length (List.hd lines) + 1) last

(* ---------- allocation: what a warm connection costs ---------- *)

module Workloads = Tqwm_sta.Workloads
module Metrics_counters = Tqwm_obs.Metrics

(* the eco-daemon benchmark's baseline: the 341-stage decoder tree *)
let decoder_tree () = Workloads.decoder_tree ~fanout:4 ~depth:4 tech

(* The committed ceilings, shape-checked before a test reads one. *)
let alloc_budget =
  lazy
    (let doc =
       Json.of_string (In_channel.with_open_bin "../ALLOC_budget.json" In_channel.input_all)
     in
     Schema.alloc_budget "ALLOC_budget.json" doc;
     doc)

(* A test-local 4M-word minor heap (restored afterwards), so that no
   minor collection runs inside a measured window. *)
let with_large_minor_heap f =
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set gc) f

(* [f] must put nothing in the calling domain's major heap. The window
   starts from empty minor heaps and a fresh major cycle, whose end
   would empty them again, and no minor collection may run in it; so
   nothing is promoted and every major word counted is a block
   allocated there directly. [Gc.counters] reads the domain's count at
   once ([Gc.quick_stat]'s only moves at major slices). *)
let no_major_words what f =
  Gc.full_major ();
  let collections = (Gc.quick_stat ()).Gc.minor_collections in
  let _, _, major = Gc.counters () in
  f ();
  let _, _, major' = Gc.counters () in
  let collections = (Gc.quick_stat ()).Gc.minor_collections - collections in
  let major = int_of_float (major' -. major) in
  if major <> 0 || collections <> 0 then
    Alcotest.failf "%s: %d major words, %d minor collections (expected none)" what major
      collections

(* the eco-daemon benchmark's k = 3 timing document, as a response *)
let timing_response () =
  let session = Tqwm_incr.Session.create ~model:(Lazy.force table) (decoder_tree ()) in
  Protocol.ok ~id:(Json.Int 1) (Script.timing_json ~k:3 session)

let test_warm_writer () =
  let response = timing_response () in
  let fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let w = Protocol.writer fd in
  let bytes = Protocol.write_frame w response in
  Alcotest.(check int) "bytes, newline included"
    (String.length (Json.to_string response) + 1)
    bytes;
  with_large_minor_heap (fun () ->
      no_major_words "warm writer, timing frame" (fun () ->
          ignore (Protocol.write_frame w response)))

let test_warm_client_timing () =
  with_large_minor_heap @@ fun () ->
  with_server ~graph:(decoder_tree ()) ~workers:1 (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (Client.request c "load" []);
          let timing () = ignore (Client.request c "timing" [ ("k", Json.Int 3) ]) in
          timing ();
          timing ();
          no_major_words "warm client, timing k = 3" timing))

(* The eco-daemon stream on its decoder tree, through an in-process
   daemon: each round resizes one stage's enable transistor (1x <-> 2x),
   then asks for the report and the slack; every 10th round also asks
   for the k = 3 timing document. A round's words, the client's and the
   worker's ([qwm.alloc.domains_minor_words], flushed per request), must
   stay within ALLOC_budget.json's [daemon_words_per_round]. *)
let test_eco_round_budget () =
  let budget =
    match Json.member "daemon_words_per_round" (Lazy.force alloc_budget) with
    | Some (Json.Int x) -> float_of_int x
    | Some (Json.Float x) -> x
    | Some _ | None -> Alcotest.fail "ALLOC_budget.json has no daemon_words_per_round"
  in
  let graph = decoder_tree () in
  let stages = Tqwm_sta.Timing_graph.num_stages graph in
  let cell = (Tqwm_circuit.Scenario.decoder ~levels:2 tech).Tqwm_circuit.Scenario.stage in
  let rec enable i =
    if cell.Tqwm_circuit.Stage.edges.(i).Tqwm_circuit.Stage.gate = Some "en" then i
    else enable (i + 1)
  in
  let edge = enable 0 in
  let doubled = Array.make stages false in
  with_server ~graph ~workers:1 (fun server ->
      let c = Client.connect (Server.address server) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (Client.request c "load" []);
          let rounds first n =
            for r = first to first + n - 1 do
              let stage = r * 37 mod stages in
              let scale = if doubled.(stage) then "0.5" else "2" in
              doubled.(stage) <- not doubled.(stage);
              let line = Printf.sprintf "resize %d %d %s" stage edge scale in
              ignore (Client.request c "edit" [ ("line", Json.String line) ]);
              ignore (Client.request c "report" []);
              ignore (Client.request c "slack" []);
              if (r + 1) mod 10 = 0 then
                ignore (Client.request c "timing" [ ("k", Json.Int 3) ])
            done
          in
          let worker () =
            Option.value (Metrics_counters.find_counter "qwm.alloc.domains_minor_words")
              ~default:0
          in
          (* the warm-up fills the shared and the session's caches *)
          rounds 0 40;
          let n = 200 in
          let w0 = worker () and c0 = Gc.minor_words () in
          rounds 40 n;
          let words = float_of_int (worker () - w0) +. (Gc.minor_words () -. c0) in
          let per_round = words /. float_of_int n in
          if per_round > budget then
            Alcotest.failf "%.0f words per eco round exceed the budget of %g" per_round budget))

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "server"
    [
      ( "identity",
        [
          quick "script replay" test_replay_identity;
          quick "eco session golden bytes" test_eco_golden_bytes;
        ] );
      ("isolation", [ quick "concurrent sessions" test_session_isolation ]);
      ( "robustness",
        [
          quick "protocol errors" test_protocol_robustness;
          quick "session cap" test_session_cap;
          quick "frames parsed in place" test_frames_in_place;
        ] );
      ( "observability",
        [
          quick "health verb" test_health_verb;
          quick "sessions gauge counts queued" test_sessions_gauge_counts_queued;
          quick "trace verb is request-scoped" test_trace_verb_request_scoped;
          quick "access log" test_access_log;
          quick "traced clients share the log" test_traced_clients_share_the_log;
        ] );
      ( "allocation",
        [
          quick "warm writer, no major words" test_warm_writer;
          quick "warm client timing, no major words" test_warm_client_timing;
          quick "eco round within ALLOC_budget.json" test_eco_round_budget;
        ] );
    ]
