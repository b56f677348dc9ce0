(** A minimal JSON document: just enough to emit metrics snapshots,
    Chrome trace files and machine-readable timing reports, and to parse
    them back for validation — no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact (single-line) serialization. A finite float prints as
    [Printf.sprintf "%.12g"] when that string reads back to the same
    float, and as [Printf.sprintf "%.17g"] otherwise; non-finite floats
    are emitted as [null] so the output is always valid JSON. Reports
    are compared byte for byte, so this format is part of the contract.
    Zeros and values of magnitude 1e-6 to 1e17 get their 17 digits from
    exact OCaml arithmetic, and C's printf only when [%.12g] might read
    back; other values always go through printf. *)

val to_buffer : Buffer.t -> t -> unit

val to_channel : out_channel -> t -> unit

val write_file : string -> t -> unit
(** Serialize to a file, with a trailing newline. *)

val of_string : string -> t
(** Strict parser for the subset this module emits (all of standard
    JSON except surrogate-pair [\u] escapes). Numbers follow the RFC 8259
    grammar (no leading zeros, no bare trailing dot); one that overflows
    to infinity is rejected.
    @raise Parse_error on malformed input. *)

val of_bytes : Bytes.t -> pos:int -> len:int -> t
(** [of_bytes b ~pos ~len] parses [b]'s [len] bytes from [pos] as
    {!of_string} parses them copied out: same value, and the same
    {!Parse_error} message, its offset counted from [pos]. Every string
    and number is copied, so the value shares no memory with [b], which
    may be reused once the call returns; [b] must not change during it.
    @raise Invalid_argument when the slice is not inside [b]. *)

val member : string -> t -> t option
(** [member key (Obj ...)] looks a field up; [None] on non-objects. *)

val to_list_opt : t -> t list option
