(** The timing-server wire protocol: newline-delimited JSON over a
    stream socket.

    Each request is one line — a JSON object with a [verb] member
    (string), an optional [id] member (echoed verbatim in the response,
    any JSON value) and verb-specific argument members. Each response is
    one line: [{"id": ..., "ok": true, "result": ...}] on success,
    [{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}]
    on failure. Lines are capped at {!max_line_bytes}; an overlong line
    is discarded up to its terminating newline and answered with an
    [oversized_line] error, leaving the connection usable. *)

module Json = Tqwm_obs.Json

val max_line_bytes : int
(** Longest accepted request line (1 MiB), newline excluded. *)

(** {2 Addresses} *)

type address =
  | Unix_sock of string  (** filesystem socket path *)
  | Tcp of Unix.inet_addr * int

val parse_address : string -> address
(** ["unix:PATH"] or ["HOST:PORT"] (numeric or resolvable host; port 0
    asks the kernel for a free port).
    @raise Invalid_argument on a malformed or unresolvable address. *)

val sockaddr_of_address : address -> Unix.sockaddr

val string_of_sockaddr : Unix.sockaddr -> string
(** Back to the [parse_address] syntax, with the {e actual} port — the
    form a server prints after binding port 0. *)

(** {2 Reading frames} *)

type reader

val reader : Unix.file_descr -> reader
(** A buffered line reader owning no resources beyond its buffer; close
    the descriptor yourself. *)

type frame =
  | Line of int
      (** one line of this many bytes, newline stripped; it stays in
          the reader's buffer, for {!frame_json} or {!request_of_frame},
          until the next {!read_frame} *)
  | Oversized
      (** a line exceeded {!max_line_bytes}; it was discarded through
          its terminating newline and the reader is re-synchronized *)
  | Eof  (** peer closed (a trailing unterminated line is dropped) *)

val read_frame : reader -> frame
(** Blocks for the next frame. Connection-reset errors read as {!Eof};
    other [Unix.Unix_error]s propagate. *)

val frame_json : reader -> Json.t
(** The last {!Line}, parsed where it lies in the reader's buffer
    ({!Json.of_bytes}): the value and any {!Json.Parse_error} message are
    those {!Json.of_string} gives for the line alone.
    @raise Json.Parse_error on a malformed line. *)

(** {2 Writing frames} *)

type writer
(** One connection's frame writer: a buffer that each frame is
    serialized into, cleared and never re-created, and a copy area of
    at most 64 KiB that the frame leaves through. *)

val writer : Unix.file_descr -> writer
(** A writer owning no resources beyond its buffers; close the
    descriptor yourself. *)

val write_frame : writer -> Json.t -> int
(** One compact JSON line, newline-terminated, fully written; returns
    the number of bytes put on the wire (newline included), which the
    server's access log records as [bytes_out]. With [SIGPIPE] ignored,
    writing to a hung-up peer raises [Unix.Unix_error (EPIPE, _, _)]. *)

val write_raw : writer -> string -> int
(** [text] and a newline, as they are — for exercising a peer's
    malformed-input handling. Returns the bytes written. *)

val write_line : Unix.file_descr -> Json.t -> int
(** {!write_frame} through a one-shot writer, for a descriptor that
    gets a single frame (the acceptor's [server_full] reply). *)

(** {2 Requests and responses} *)

type request = {
  id : Json.t;  (** [Null] when absent *)
  verb : string;
  body : Json.t;  (** the whole request object, for argument lookup *)
}

val request_of_line : string -> (request, string) result
(** Parse one line: must be a JSON object with a string [verb]. *)

val request_of_frame : reader -> (request, string) result
(** {!request_of_line} of the last {!Line}, parsed in place. *)

val arg : request -> string -> Json.t option

val ok : id:Json.t -> Json.t -> Json.t

val error : id:Json.t -> code:string -> string -> Json.t
(** Structured failure; [code] is one of the protocol's stable error
    codes ([parse_error], [unknown_verb], [bad_request], [script_error],
    [oversized_line], [server_full], [internal]). *)
