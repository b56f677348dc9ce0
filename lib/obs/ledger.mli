(** Append-style JSON trajectory files.

    A ledger is a file holding a JSON array of run records — one element
    per invocation, so repeated runs accumulate instead of overwriting.
    [AUDIT_accuracy.json] is the one the repository keeps. Every
    appended record is stamped with the UTC date and the current git
    commit ({!Vcs.commit}), making each point of the trajectory
    attributable. *)

val stamp : Json.t -> Json.t
(** Prepend ["date"] (UTC, ISO-8601) and ["commit"] fields to an object,
    replacing any already present; non-objects pass through unchanged. *)

val read : string -> Json.t list
(** All records of a ledger file: [[]] when the file does not exist or
    is empty; a pre-existing single-object file (the old overwrite
    format) becomes a one-element history.
    @raise Failure naming the path and the parse error when the file
    exists but is not JSON (a merge-conflict marker, a truncated write).
    Such a history is never read as empty. *)

val last : string -> Json.t option
(** The most recent record, if any.
    @raise Failure as {!read}. *)

val append : path:string -> Json.t -> int
(** Stamp the record and append it to the ledger at [path], creating the
    file if needed. Returns the new record count.
    @raise Invalid_argument when the record is not a JSON object with a
    ["schema"] string field — every ledger consumer dispatches on the
    schema version, so an unversioned record would be unidentifiable.
    @raise Failure as {!read}, leaving the file's bytes untouched: a
    history that cannot be parsed is never overwritten. *)
