module Json = Tqwm_obs.Json

let max_line_bytes = 1 lsl 20

(* ---- addresses ---- *)

type address = Unix_sock of string | Tcp of Unix.inet_addr * int

let parse_address spec =
  let fail () =
    invalid_arg
      (Printf.sprintf "bad address %S: expected unix:PATH or HOST:PORT" spec)
  in
  match String.index_opt spec ':' with
  | None -> fail ()
  | Some _ when String.length spec > 5 && String.sub spec 0 5 = "unix:" ->
    let path = String.sub spec 5 (String.length spec - 5) in
    if path = "" then fail ();
    Unix_sock path
  | Some _ ->
    (* split on the last colon so numeric hosts keep their dots *)
    let i = String.rindex spec ':' in
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match int_of_string_opt port with
    | None -> fail ()
    | Some port when port < 0 || port > 0xffff -> fail ()
    | Some port ->
      let addr =
        if host = "" then Unix.inet_addr_loopback
        else
          match Unix.inet_addr_of_string host with
          | a -> a
          | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } -> fail ()
            | { Unix.h_addr_list; _ } -> h_addr_list.(0)
            | exception Not_found -> fail ())
      in
      Tcp (addr, port))

let sockaddr_of_address = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (addr, port) -> Unix.ADDR_INET (addr, port)

let string_of_sockaddr = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (addr, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port

(* ---- buffered line reader ---- *)

(* Input waits in [buf.[start .. stop - 1]]; bytes before [scan] hold no
   newline. Reads go straight into [buf] behind [stop], and a frame is
   parsed where it lies: the last [Line] is [buf.[line .. line +
   line_len - 1]]. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scan : int;
  mutable line : int;
  mutable line_len : int;
}

let read_size = 65536

let reader fd =
  { fd; buf = Bytes.create read_size; start = 0; stop = 0; scan = 0; line = 0; line_len = 0 }

type frame = Line of int | Oversized | Eof

(* Read once into [buf] behind [stop], first making room for
   [read_size] bytes; 0 at end of input. *)
let rec refill r =
  if Bytes.length r.buf - r.stop < read_size then begin
    let pending = r.stop - r.start in
    let buf =
      if pending + read_size <= Bytes.length r.buf then r.buf
      else Bytes.create (max (pending + read_size) (2 * Bytes.length r.buf))
    in
    Bytes.blit r.buf r.start buf 0 pending;
    r.buf <- buf;
    r.scan <- r.scan - r.start;
    r.start <- 0;
    r.stop <- pending
  end;
  match Unix.read r.fd r.buf r.stop read_size with
  | n ->
    r.stop <- r.stop + n;
    n
  | exception Unix.Unix_error (EINTR, _, _) -> refill r
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> 0

let rec newline_in b i stop =
  if i >= stop then -1 else if Bytes.unsafe_get b i = '\n' then i else newline_in b (i + 1) stop

(* the line is gone; eat bytes until its newline so the next frame starts
   clean *)
let rec drain r =
  r.start <- 0;
  r.stop <- 0;
  r.scan <- 0;
  match refill r with
  | 0 -> Eof
  | _ -> (
    match newline_in r.buf 0 r.stop with
    | -1 -> drain r
    | i ->
      r.start <- i + 1;
      r.scan <- i + 1;
      Oversized)

let rec read_frame r =
  match newline_in r.buf r.scan r.stop with
  | -1 ->
    r.scan <- r.stop;
    if r.stop - r.start > max_line_bytes then drain r
    else if refill r = 0 then Eof
    else read_frame r
  | i ->
    let start = r.start in
    r.start <- i + 1;
    r.scan <- i + 1;
    if i - start > max_line_bytes then Oversized
    else begin
      r.line <- start;
      r.line_len <- i - start;
      Line (i - start)
    end

let frame_json r = Json.of_bytes r.buf ~pos:r.line ~len:r.line_len

(* ---- frame writer ---- *)

(* A frame is built in [frame], which is cleared and never re-created,
   and leaves through [chunk], a grow-only copy area of at most
   [write_size] bytes: no per-frame block, and no frame-sized copy. *)
type writer = { wfd : Unix.file_descr; frame : Buffer.t; mutable chunk : Bytes.t }

let write_size = 65536

let writer fd = { wfd = fd; frame = Buffer.create 256; chunk = Bytes.empty }

(* Write [b.[off .. off + len - 1]], retrying when a signal interrupts. *)
let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd b off len

(* Terminate the frame in [w.frame] and write it a chunk at a time. *)
let send w =
  Buffer.add_char w.frame '\n';
  let len = Buffer.length w.frame in
  let want = min len write_size in
  if Bytes.length w.chunk < want then
    w.chunk <- Bytes.create (min write_size (max want (2 * Bytes.length w.chunk)));
  let rec loop off =
    if off < len then begin
      let n = min (len - off) (Bytes.length w.chunk) in
      Buffer.blit w.frame off w.chunk 0 n;
      write_all w.wfd w.chunk 0 n;
      loop (off + n)
    end
  in
  loop 0;
  len

let write_frame w json =
  Buffer.clear w.frame;
  Json.to_buffer w.frame json;
  send w

let write_raw w text =
  Buffer.clear w.frame;
  Buffer.add_string w.frame text;
  send w

let write_line fd json = write_frame (writer fd) json

(* ---- requests and responses ---- *)

type request = { id : Json.t; verb : string; body : Json.t }

(* The request [parse] reads: must be a JSON object with a string [verb]. *)
let request_of parse =
  match parse () with
  | exception Json.Parse_error msg -> Error ("invalid JSON: " ^ msg)
  | Json.Obj _ as body -> (
    let id = Option.value (Json.member "id" body) ~default:Json.Null in
    match Json.member "verb" body with
    | Some (Json.String verb) when verb <> "" -> Ok { id; verb; body }
    | Some _ -> Error "\"verb\" must be a non-empty string"
    | None -> Error "request object has no \"verb\" member")
  | _ -> Error "request must be a JSON object"

let request_of_line line = request_of (fun () -> Json.of_string line)

let request_of_frame r = request_of (fun () -> frame_json r)

let arg req name = Json.member name req.body

let ok ~id result =
  Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let error ~id ~code message =
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj [ ("code", Json.String code); ("message", Json.String message) ] );
    ]
