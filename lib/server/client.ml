module Json = Tqwm_obs.Json

type t = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  writer : Protocol.writer;
  mutable next_id : int;
  mutable closed : bool;
}

exception Server_error of { code : string; message : string }
exception Protocol_failure of string

let connect spec =
  let address = Protocol.parse_address spec in
  let domain =
    match address with Protocol.Unix_sock _ -> Unix.PF_UNIX | Protocol.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Protocol.sockaddr_of_address address)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; reader = Protocol.reader fd; writer = Protocol.writer fd; next_id = 0; closed = false }

let send_line t line = ignore (Protocol.write_raw t.writer line)

let recv_response t =
  match Protocol.read_frame t.reader with
  | Protocol.Eof -> None
  | Protocol.Oversized -> raise (Protocol_failure "oversized response line")
  | Protocol.Line _ -> (
    match Protocol.frame_json t.reader with
    | j -> Some j
    | exception Json.Parse_error m ->
      raise (Protocol_failure ("unparseable response: " ^ m)))

let request_raw t json =
  ignore (Protocol.write_frame t.writer json);
  recv_response t

let request t verb args =
  let id = t.next_id in
  t.next_id <- id + 1;
  let response =
    match
      request_raw t
        (Json.Obj (("id", Json.Int id) :: ("verb", Json.String verb) :: args))
    with
    | Some r -> r
    | None -> raise (Protocol_failure "connection closed before response")
  in
  (match Json.member "id" response with
  | Some (Json.Int got) when got = id -> ()
  | _ -> raise (Protocol_failure "response id does not match request"));
  match Json.member "ok" response with
  | Some (Json.Bool true) ->
    Option.value (Json.member "result" response) ~default:Json.Null
  | Some (Json.Bool false) ->
    let code, message =
      match Json.member "error" response with
      | Some err ->
        ( (match Json.member "code" err with Some (Json.String c) -> c | _ -> "unknown"),
          match Json.member "message" err with Some (Json.String m) -> m | _ -> "" )
      | None -> ("unknown", "")
    in
    raise (Server_error { code; message })
  | _ -> raise (Protocol_failure "response has no boolean \"ok\" member")

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try ignore (request t "close" []) with
    | Server_error _ | Protocol_failure _ | Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let health t = request t "health" []

type replayed = { output : string; document : Json.t; timing : Json.t option }

let replay ?(k = 1) t text =
  ignore (request t "load" [ ("graph", Json.String "") ]);
  let out = Buffer.create 1024 in
  let take result =
    match Json.member "output" result with
    | Some (Json.String s) -> Buffer.add_string out s
    | Some _ | None -> ()
  in
  List.iter
    (fun line -> take (request t "script" [ ("line", Json.String line) ]))
    (String.split_on_char '\n' text);
  let document = request t "document" [] in
  (* scripts that set a clock get the timing document, mirroring the
     offline run's [--timing-json] output *)
  let timing =
    match Json.member "timing" document with
    | Some _ -> Some (request t "timing" [ ("k", Json.Int k) ])
    | None -> None
  in
  { output = Buffer.contents out; document; timing }
