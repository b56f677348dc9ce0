(** Arrays built without a forced minor collection.

    OCaml allocates an array of more than 256 elements in the major
    heap, and the runtime runs a minor collection before it fills one
    from a young initial value. [Array.init], [Array.map], [Array.mapi]
    and [Array.of_list] pass their first element as that value, so when
    it was just allocated each of these calls collects the minor heap;
    with several domains the collection stops all of them. *)

val init : 'a -> int -> (int -> 'a) -> 'a array
(** [init empty n f] is [Array.init n f], first filled with [empty],
    which must be an immediate or long-lived value (a constant
    constructor, a static record). *)
