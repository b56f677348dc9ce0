(* qwm_client: talk to a qwm_sim --serve timing daemon — replay an
   --incr script against a live session, or fire a single verb — and
   optionally persist the returned report documents, byte-identical to
   the offline qwm_sim outputs. *)

module Client = Tqwm_server.Client
module Json = Tqwm_obs.Json

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* one [metrics] verb read-out: what --watch differences *)
type snapshot = { at : float; requests : float; errors : float; sessions : float }

let snapshot client =
  let m = Client.request client "metrics" [] in
  let at = Unix.gettimeofday () in
  let read section name =
    match Option.bind (Json.member section m) (Json.member name) with
    | Some (Json.Int i) -> float_of_int i
    | Some (Json.Float f) -> f
    | _ -> 0.0
  in
  {
    at;
    requests = read "counters" "server.requests";
    errors = read "counters" "server.errors";
    sessions = read "gauges" "server.sessions";
  }

let run addr replay_file verb_opt k json_file timing_json_file quiet watch count =
  if k < 1 then (
    Printf.eprintf "qwm_client: --k must be >= 1 (got %d)\n" k;
    exit 2);
  (match watch with
  | Some p when p <= 0.0 || not (Float.is_finite p) ->
    Printf.eprintf "qwm_client: --watch must be finite and > 0 (got %g)\n" p;
    exit 2
  | Some _ | None -> ());
  if count < 0 then (
    Printf.eprintf "qwm_client: --count must be >= 0 (got %d)\n" count;
    exit 2);
  if replay_file = None && verb_opt = None && watch = None then (
    Printf.eprintf
      "qwm_client: nothing to do; pass --replay SCRIPT, --verb VERB or --watch \
       SECS\n";
    exit 2);
  let client =
    match Client.connect addr with
    | c -> c
    | exception Invalid_argument msg ->
      Printf.eprintf "qwm_client: %s\n" msg;
      exit 2
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "qwm_client: cannot connect to %s: %s\n" addr
        (Unix.error_message e);
      exit 1
  in
  let finally () = Client.close client in
  Fun.protect ~finally @@ fun () ->
  match watch with
  | Some period ->
    (* poll until interrupted (or --count lines); each line reports what
       happened since the previous snapshot *)
    let rec poll i prev =
      if count = 0 || i <= count then begin
        Unix.sleepf period;
        let cur = snapshot client in
        let dt = cur.at -. prev.at in
        Printf.printf "[%d] qps %.2f  err/s %.2f  sessions %.0f\n%!" i
          ((cur.requests -. prev.requests) /. dt)
          ((cur.errors -. prev.errors) /. dt)
          cur.sessions;
        poll (i + 1) cur
      end
    in
    poll 1 (snapshot client);
    0
  | None ->
  match replay_file with
  | Some path ->
    let text = read_file path in
    let replayed = Client.replay ~k client text in
    if not quiet then print_string replayed.Client.output;
    (match json_file with
    | None -> ()
    | Some out ->
      Json.write_file out replayed.Client.document;
      if not quiet then Printf.printf "client: wrote session document to %s\n" out);
    (match (timing_json_file, replayed.Client.timing) with
    | None, _ -> ()
    | Some out, Some doc ->
      Json.write_file out doc;
      if not quiet then Printf.printf "client: wrote timing report to %s\n" out
    | Some _, None ->
      Printf.eprintf
        "qwm_client: --timing-json needs the script to set a clock (no timing \
         document)\n";
      exit 1);
    0
  | None -> (
    match verb_opt with
    | None -> 0
    | Some verb ->
      let result = Client.request client verb [] in
      print_endline (Json.to_string result);
      0)

let run addr replay_file verb_opt k json_file timing_json_file quiet watch count =
  match run addr replay_file verb_opt k json_file timing_json_file quiet watch count with
  | code -> code
  | exception Client.Server_error { code; message } ->
    Printf.eprintf "qwm_client: server error [%s]: %s\n" code message;
    1
  | exception Client.Protocol_failure msg ->
    Printf.eprintf "qwm_client: protocol failure: %s\n" msg;
    1
  | exception Unix.Unix_error (e, fn, _) ->
    Printf.eprintf "qwm_client: %s: %s\n" fn (Unix.error_message e);
    1
  | exception Sys_error msg ->
    Printf.eprintf "qwm_client: %s\n" msg;
    1

open Cmdliner

let addr =
  let doc = "Server address: unix:PATH or HOST:PORT." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR" ~doc)

let replay_file =
  let doc =
    "Replay the --incr script $(docv) through a fresh server session \
     (load, one script request per line, then the final documents)."
  in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"SCRIPT" ~doc)

let verb =
  let doc = "Send a single argument-less verb (metrics, document, report, ...) and print its result JSON." in
  Arg.(value & opt (some string) None & info [ "verb" ] ~docv:"VERB" ~doc)

let k =
  let doc = "Worst paths requested in the timing document (>= 1)." in
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"N" ~doc)

let json_file =
  let doc = "Write the replayed session's tqwm-incr-report/1 document to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let timing_json_file =
  let doc = "Write the replayed session's tqwm-report/1 timing document to $(docv) (requires the script to set a clock)." in
  Arg.(value & opt (some string) None & info [ "timing-json" ] ~docv:"FILE" ~doc)

let quiet =
  let doc = "Suppress the replayed commands' progress output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let watch =
  let doc =
    "Read the metrics verb, then every $(docv) seconds read it again and \
     print one line: requests and errors per second since the previous \
     read (the watch's own reads included) and the open sessions. Runs \
     until interrupted, or for --count lines."
  in
  Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"SECS" ~doc)

let count =
  let doc = "Stop --watch after $(docv) lines (0 = run until interrupted)." in
  Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)

let cmd =
  let doc = "client for the qwm_sim --serve timing daemon" in
  Cmd.v
    (Cmd.info "qwm_client" ~version:"1.0.0" ~doc)
    Term.(
      const run $ addr $ replay_file $ verb $ k $ json_file $ timing_json_file
      $ quiet $ watch $ count)

let () = exit (Cmd.eval' cmd)
