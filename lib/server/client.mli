(** Client side of the {!Protocol}: connect, exchange one-line JSON
    requests, and replay whole [--incr] scripts — the shared engine of
    the [qwm_client] tool, the protocol tests and the server bench. *)

module Json = Tqwm_obs.Json

type t

exception Server_error of { code : string; message : string }
(** A structured [{"ok": false}] response ({!Protocol.error} codes). *)

exception Protocol_failure of string
(** The transport broke: connection closed mid-response, or the server
    answered something that is not a response. *)

val connect : string -> t
(** Dial ["unix:PATH"] or ["HOST:PORT"].
    @raise Invalid_argument on a malformed address.
    @raise Unix.Unix_error when connecting fails. *)

val close : t -> unit
(** Best-effort [close] verb, then close the socket. Idempotent. *)

val request : t -> string -> (string * Json.t) list -> Json.t
(** [request t verb args] sends one request (with a fresh integer [id])
    and blocks for its response, returning the [result] member.
    @raise Server_error on an [ok: false] response.
    @raise Protocol_failure on transport or framing trouble. *)

val request_raw : t -> Json.t -> Json.t option
(** Ship an arbitrary JSON value as the request line and return the raw
    response object ([None] on EOF) — no id bookkeeping, no error
    decoding. The protocol robustness tests' escape hatch. *)

val send_line : t -> string -> unit
(** Ship raw bytes plus a newline — for exercising the server's
    malformed-input handling. *)

val recv_response : t -> Json.t option
(** Read one response line ([None] on EOF). *)

val health : t -> Json.t
(** The [health] verb's result object. *)

type replayed = {
  output : string;  (** concatenated [output] text of every command *)
  document : Json.t;  (** the final [tqwm-incr-report/1] document *)
  timing : Json.t option;
      (** the [tqwm-report/1] document under the script's clock —
          present when the script set one (or [k] was forced) *)
}

val replay : ?k:int -> t -> string -> replayed
(** Run a whole [--incr] script text through a fresh empty session:
    [load {"graph": ""}], one [script] request per line, then
    [document] — and [timing] (with [k], default 1) when the script set
    a clock. Byte-for-byte the documents an offline
    [qwm_sim --incr --json --timing-json] run of the same script
    produces.
    @raise Server_error with the failing line's message, as the offline
    run would report it. *)
