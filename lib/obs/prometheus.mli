(** Prometheus text-format exposition of the global {!Metrics} registry.

    [render] produces exposition format 0.0.4: counters and gauges as
    single samples, histograms as cumulative [_bucket{le="..."}] series
    (the registry's per-bucket counts summed left to right) closed by
    the mandatory [+Inf] bucket plus [_sum]/[_count]. Dotted registry
    names are sanitized to Prometheus' charset ([server.requests] →
    [server_requests]). An integral value below 1e15 prints without a
    fraction; any other finite value prints with the digits
    {!Json.to_string} gives it, which read back as the same float.

    [serve] starts a deliberately tiny HTTP/1.1 listener on its own
    domain that answers [GET /metrics] (and [GET /]) with a fresh
    render and closes the connection — enough for a stock Prometheus
    scrape config or [curl]; anything else gets 404/405. One request
    per connection, no keep-alive, no TLS. *)

val render : unit -> string
(** The full exposition document for the current registry contents. *)

val sanitize : string -> string
(** Map a registry name to a legal Prometheus metric name. *)

type server

val serve : Unix.sockaddr -> server
(** Bind the address (TCP or Unix-domain; an existing socket file is
    replaced, port 0 picks an ephemeral port — see {!bound}) and serve
    scrapes on a dedicated acceptor domain until {!stop}.
    @raise Unix.Unix_error if the address cannot be bound. *)

val bound : server -> Unix.sockaddr
(** The actual bound address — useful with an ephemeral port. *)

val stop : server -> unit
(** Stop accepting, join the acceptor domain, close and unlink the
    socket. Idempotent. *)
