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
   cut out of it in place. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scan : int;
}

let read_size = 65536

let reader fd = { fd; buf = Bytes.create read_size; start = 0; stop = 0; scan = 0 }

type frame = Line of string | Oversized | Eof

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
    if i - start > max_line_bytes then Oversized else Line (Bytes.sub_string r.buf start (i - start))

(* Write all of [b], retrying when a signal interrupts. *)
let write_all fd b =
  let len = Bytes.length b in
  let rec loop off =
    if off < len then begin
      match Unix.write fd b off (len - off) with
      | n -> loop (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> loop off
    end
  in
  loop 0

let write_line fd json =
  let buf = Buffer.create 256 in
  Json.to_buffer buf json;
  Buffer.add_char buf '\n';
  let frame = Buffer.to_bytes buf in
  write_all fd frame;
  Bytes.length frame

(* ---- requests and responses ---- *)

type request = { id : Json.t; verb : string; body : Json.t }

let request_of_line line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error ("invalid JSON: " ^ msg)
  | Json.Obj _ as body -> (
    let id = Option.value (Json.member "id" body) ~default:Json.Null in
    match Json.member "verb" body with
    | Some (Json.String verb) when verb <> "" -> Ok { id; verb; body }
    | Some _ -> Error "\"verb\" must be a non-empty string"
    | None -> Error "request object has no \"verb\" member")
  | _ -> Error "request must be a JSON object"

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
