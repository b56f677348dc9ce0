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
        ] );
      ( "observability",
        [
          quick "health verb" test_health_verb;
          quick "sessions gauge counts queued" test_sessions_gauge_counts_queued;
          quick "trace verb is request-scoped" test_trace_verb_request_scoped;
          quick "access log" test_access_log;
          quick "traced clients share the log" test_traced_clients_share_the_log;
        ] );
    ]
