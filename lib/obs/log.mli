(** Structured JSONL logging: one compact JSON object per line,
    appended and flushed under a lock so concurrent writers from any
    domain produce whole lines (never interleaved) and a tail-reader
    sees each record as soon as the request that produced it finishes.

    The daemon uses this for its access log; the record schema is
    checked by test/test_server.ml. *)

type t

val open_file : string -> t
(** Open (or create, mode 0o644) for appending. *)

val path : t -> string

val write : t -> (string * Json.t) list -> unit
(** Append one record as a single line and flush. *)

val close : t -> unit
