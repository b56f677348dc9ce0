(* Prometheus text exposition format 0.0.4 over the global Metrics
   registry, plus a minimal single-purpose HTTP listener so a stock
   Prometheus server (or curl) can scrape the daemon. *)

let scrapes = Metrics.counter "prom.scrapes"

(* Finite non-integers print with the JSON documents' round-tripping
   digits, so a Unix time in seconds keeps its fraction. *)
let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else if Float.is_finite v then Json.to_string (Json.Float v)
  else Printf.sprintf "%.12g" v

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; the registry uses
   dotted names, so map every other character to '_'. Distinct dotted
   names can collide after sanitization ("a.b" vs "a_b") — the registry
   naming convention avoids this. *)
let sanitize name =
  let ok i c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
    | '0' .. '9' -> i > 0
    | _ -> false
  in
  String.mapi (fun i c -> if ok i c then c else '_') name

let render () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
      let p = sanitize name in
      match m with
      | Metrics.Counter_value v ->
          Printf.bprintf b "# TYPE %s counter\n%s %d\n" p p v
      | Metrics.Gauge_value v ->
          Printf.bprintf b "# TYPE %s gauge\n%s %s\n" p p (fmt_float v)
      | Metrics.Histogram_value { bounds; counts; sum } ->
          Printf.bprintf b "# TYPE %s histogram\n" p;
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + counts.(i);
              Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" p (fmt_float bound)
                !cum)
            bounds;
          let total = !cum + counts.(Array.length bounds) in
          Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" p total;
          Printf.bprintf b "%s_sum %s\n" p (fmt_float sum);
          Printf.bprintf b "%s_count %d\n" p total)
    (Metrics.export ());
  Buffer.contents b

type server = {
  fd : Unix.file_descr;
  bound : Unix.sockaddr;
  stopping : bool Atomic.t;
  mutable acceptor : unit Domain.t option;
}

let http_response ~status ~body =
  let content_type = "text/plain; version=0.0.4; charset=utf-8" in
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  go 0

(* Read until the end of the request head (or 8 KiB); we only need the
   request line. Scrapers send tiny requests, so one read typically
   suffices. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf < 8192 then begin
      let n = try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0 in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        let have_head =
          (* a bare request line is enough once we've seen its newline *)
          String.contains s '\n'
        in
        if not have_head then go ()
      end
    end
  in
  go ();
  Buffer.contents buf

let handle_conn fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
       with Unix.Unix_error _ -> ());
      let head = read_head fd in
      let request_line =
        match String.index_opt head '\n' with
        | Some i -> String.trim (String.sub head 0 i)
        | None -> String.trim head
      in
      let response =
        match String.split_on_char ' ' request_line with
        | meth :: path :: _ when String.uppercase_ascii meth = "GET" ->
            let path =
              match String.index_opt path '?' with
              | Some i -> String.sub path 0 i
              | None -> path
            in
            if path = "/metrics" || path = "/" then begin
              Metrics.incr scrapes;
              http_response ~status:"200 OK" ~body:(render ())
            end
            else http_response ~status:"404 Not Found" ~body:"not found\n"
        | _ ->
            http_response ~status:"405 Method Not Allowed"
              ~body:"only GET is supported\n"
      in
      try write_all fd response with Unix.Unix_error _ -> ())

(* Poll with a timeout instead of blocking in accept(2): on Linux,
   closing the listening fd does not wake a blocked sibling accept, so
   [stop] relies on the acceptor noticing [stopping] between polls
   (same scheme as Tqwm_server.Server). *)
let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.fd with
        | fd, _ -> handle_conn fd
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let serve addr =
  let domain =
    match addr with
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
  (try Unix.bind fd addr
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 16;
  let bound = Unix.getsockname fd in
  let t = { fd; bound; stopping = Atomic.make false; acceptor = None } in
  t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let bound t = t.bound

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Option.iter Domain.join t.acceptor;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    match t.bound with
    | Unix.ADDR_UNIX path when path <> "" -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  end
