module Metrics = Noc_obs.Metrics
module Clock = Noc_obs.Clock

type config = {
  socket_path : string;
  max_queue : int;
  max_inflight : int;
  linger_ms : float;
  retry_after_ms : int;
  install_signals : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    max_queue = 64;
    max_inflight = 8;
    linger_ms = 0.;
    retry_after_ms = 50;
    install_signals = false;
  }

let m_requests = Metrics.counter "serve.requests"
let m_responses = Metrics.counter "serve.responses"
let m_coalesced = Metrics.counter "serve.coalesced"
let m_shed = Metrics.counter "serve.shed"
let m_batches = Metrics.counter "serve.batches"
let g_clients = Metrics.gauge "serve.clients"
let g_queue_depth = Metrics.gauge "serve.queue_depth"
let h_batch_size = Metrics.histogram "serve.batch_size"
let h_latency = Metrics.histogram "serve.latency_ns"

(* Set from signal handlers and other domains; polled by the loop. *)
let stop_flag = Atomic.make false
let stop () = Atomic.set stop_flag true

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;             (* bytes queued for the socket *)
  mutable out_pos : int;         (* prefix of [outbuf] already written *)
  mutable handshaken : bool;
  mutable inflight : int;        (* admitted, response not yet queued *)
  mutable reject_after_flush : bool;
}

let pending_out c = Buffer.length c.outbuf - c.out_pos

type pending = {
  p_client : client;
  p_id : int;
  p_job : Service.job;
  p_admitted : float;  (* Clock.wall seconds *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  clients : (Unix.file_descr, client) Hashtbl.t;
  queue : pending Queue.t;
  mutable draining : bool;
  mutable linger_deadline : float option;
}

let set_gauges t =
  Metrics.set g_clients (float_of_int (Hashtbl.length t.clients));
  Metrics.set g_queue_depth (float_of_int (Queue.length t.queue))

let send_to c text = Buffer.add_string c.outbuf text

let respond t c response =
  send_to c (Protocol.encode_response response);
  Metrics.incr m_responses;
  ignore t

let drop_client t c =
  (match Unix.close c.fd with () -> () | exception Unix.Unix_error _ -> ());
  Hashtbl.remove t.clients c.fd;
  set_gauges t

(* --- request admission --------------------------------------------------- *)

let fail ?retry_after_ms ~id code message =
  Protocol.Failure { id; code; message; retry_after_ms }

let stats_payload () = Metrics.render_json (Metrics.snapshot ())

let handle_request t c { Protocol.id; op } =
  Metrics.incr m_requests;
  match op with
  | Protocol.Ping -> respond t c (Protocol.Result { id; payload = "pong"; coalesced = false })
  | Protocol.Stats ->
    respond t c (Protocol.Result { id; payload = stats_payload (); coalesced = false })
  | Protocol.Shutdown ->
    t.draining <- true;
    respond t c (Protocol.Result { id; payload = "draining"; coalesced = false })
  | _ when t.draining ->
    Metrics.incr m_shed;
    respond t c (fail ~id Protocol.Shutting_down "server is draining")
  | _ when c.inflight >= t.cfg.max_inflight ->
    Metrics.incr m_shed;
    respond t c
      (fail ~retry_after_ms:t.cfg.retry_after_ms ~id Protocol.Too_many_inflight
         (Printf.sprintf "client already has %d requests in flight" c.inflight))
  | _ when Queue.length t.queue >= t.cfg.max_queue ->
    Metrics.incr m_shed;
    respond t c
      (fail ~retry_after_ms:t.cfg.retry_after_ms ~id Protocol.Overloaded
         (Printf.sprintf "queue full (%d pending)" t.cfg.max_queue))
  | _ -> (
    match Service.prepare_cached op with
    | Error (code, message) -> respond t c (fail ~id code message)
    | Ok job ->
      c.inflight <- c.inflight + 1;
      Queue.add { p_client = c; p_id = id; p_job = job; p_admitted = Clock.wall () } t.queue;
      if t.linger_deadline = None && t.cfg.linger_ms > 0. then
        t.linger_deadline <- Some (Clock.wall () +. (t.cfg.linger_ms /. 1000.));
      set_gauges t)

let handle_line t c line =
  if String.trim line = "" then ()
  else if not c.handshaken then begin
    match Protocol.check_hello line with
    | Ok () ->
      c.handshaken <- true;
      send_to c (Protocol.hello_ok ())
    | Error message ->
      send_to c (Protocol.hello_reject ~message);
      c.reject_after_flush <- true
  end
  else
    match Protocol.decode_request line with
    | Ok req -> handle_request t c req
    | Error message ->
      (* No id to echo; use -1 so the client can still correlate "my
         last write was garbage". *)
      respond t c (fail ~id:(-1) Protocol.Bad_request message)

(* --- socket plumbing ----------------------------------------------------- *)

let read_chunk = Bytes.create 65536

(* [inbuf] holds the partial line earlier reads left, which has no
   newline, so only the [n] new bytes are scanned: a long line that
   arrives in small pieces costs time linear in its length. *)
let handle_readable t c =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> drop_client t c
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get read_chunk i = '\n' then begin
        Buffer.add_subbytes c.inbuf read_chunk !start (i - !start);
        let line = Buffer.contents c.inbuf in
        Buffer.clear c.inbuf;
        start := i + 1;
        handle_line t c line
      end
    done;
    Buffer.add_subbytes c.inbuf read_chunk !start (n - !start)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop_client t c

let handle_writable t c =
  let len = pending_out c in
  if len > 0 then begin
    (* Copy out one bounded chunk, not the whole backlog: a fan-out of
       large payloads would otherwise re-copy the tail on every
       partial write. *)
    let chunk = Buffer.sub c.outbuf c.out_pos (min len 65536) in
    match Unix.write_substring c.fd chunk 0 (String.length chunk) with
    | n ->
      c.out_pos <- c.out_pos + n;
      if pending_out c = 0 then begin
        Buffer.clear c.outbuf;
        c.out_pos <- 0;
        if c.reject_after_flush then drop_client t c
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> drop_client t c
  end

let accept_clients t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace t.clients fd
        {
          fd;
          inbuf = Buffer.create 256;
          outbuf =
            (let b = Buffer.create 1024 in
             Buffer.add_string b (Protocol.greeting ());
             b);
          out_pos = 0;
          handshaken = false;
          inflight = 0;
          reject_after_flush = false;
        };
      go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ();
  set_gauges t

(* --- batch execution ----------------------------------------------------- *)

let execute_queue t =
  let batch = Array.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  t.linger_deadline <- None;
  if Array.length batch > 0 then begin
    Metrics.incr m_batches;
    Metrics.observe h_batch_size (float_of_int (Array.length batch));
    let jobs = Array.map (fun p -> p.p_job) batch in
    let plan = Service.plan jobs in
    Metrics.incr ~by:plan.Service.coalesced m_coalesced;
    let results = Service.execute_batch plan.Service.unique in
    (* How many requesters share each unique slot: a slot with >1 is a
       coalesced computation and every fan-out is flagged. *)
    let sharers = Array.make (Array.length plan.Service.unique) 0 in
    Array.iter (fun slot -> sharers.(slot) <- sharers.(slot) + 1) plan.Service.assign;
    (* Escape each distinct payload once; the fan-out then only copies
       bytes (a coalesced design payload can be hundreds of KB). *)
    let escaped =
      Array.map
        (function Ok payload -> Protocol.escape_payload payload | Error _ -> "")
        results
    in
    Array.iteri
      (fun i p ->
        let slot = plan.Service.assign.(i) in
        p.p_client.inflight <- p.p_client.inflight - 1;
        Metrics.observe h_latency ((Clock.wall () -. p.p_admitted) *. 1e9);
        if Hashtbl.mem t.clients p.p_client.fd then
          match results.(slot) with
          | Ok _ ->
            send_to p.p_client
              (Protocol.encode_result_preescaped ~id:p.p_id
                 ~coalesced:(sharers.(slot) > 1) ~escaped_payload:escaped.(slot));
            Metrics.incr m_responses
          | Error message -> respond t p.p_client (fail ~id:p.p_id Protocol.Exec_error message))
      batch;
    set_gauges t
  end

(* --- the loop ------------------------------------------------------------ *)

let bind_socket path =
  (* Refuse to displace a live server; replace a stale socket file. *)
  let live =
    match Unix.socket PF_UNIX SOCK_STREAM 0 with
    | probe -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error _ -> false))
    | exception Unix.Unix_error _ -> false
  in
  if live then Error (Printf.sprintf "%s: a server is already listening" path)
  else begin
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    match Unix.socket PF_UNIX SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | fd -> (
      match
        Unix.bind fd (ADDR_UNIX path);
        Unix.listen fd 128;
        Unix.set_nonblock fd
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  end

let running = Atomic.make false

let run cfg =
  if Atomic.exchange running true then Error "a server is already running in this process"
  else begin
    Atomic.set stop_flag false;
    let finish r = Atomic.set running false; r in
    match bind_socket cfg.socket_path with
    | Error e -> finish (Error e)
    | Ok listen_fd ->
      (* A client vanishing mid-write must not kill the daemon. *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
      if cfg.install_signals then begin
        let handler = Sys.Signal_handle (fun _ -> stop ()) in
        (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ())
      end;
      let t =
        {
          cfg;
          listen_fd;
          clients = Hashtbl.create 16;
          queue = Queue.create ();
          draining = false;
          linger_deadline = None;
        }
      in
      let listen_open = ref true in
      let close_listen () =
        if !listen_open then begin
          listen_open := false;
          (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
        end
      in
      let all_flushed () =
        Hashtbl.fold (fun _ c acc -> acc && pending_out c = 0) t.clients true
      in
      let rec loop () =
        if Atomic.get stop_flag then t.draining <- true;
        if t.draining then close_listen ();
        if t.draining && Queue.is_empty t.queue && all_flushed () then ()
        else begin
          let reads =
            (if !listen_open then [ t.listen_fd ] else [])
            @ Hashtbl.fold (fun fd _ acc -> fd :: acc) t.clients []
          in
          let writes =
            Hashtbl.fold (fun fd c acc -> if pending_out c > 0 then fd :: acc else acc) t.clients []
          in
          let timeout =
            match t.linger_deadline with
            | Some deadline when not (Queue.is_empty t.queue) ->
              Float.max 0.001 (deadline -. Clock.wall ())
            | _ -> if Queue.is_empty t.queue then 0.1 else 0.001
          in
          let readable, writable, _ =
            match Unix.select reads writes [] timeout with
            | r -> r
            | exception Unix.Unix_error (EINTR, _, _) -> ([], [], [])
          in
          List.iter
            (fun fd ->
              if fd = t.listen_fd then accept_clients t
              else
                match Hashtbl.find_opt t.clients fd with
                | Some c -> handle_readable t c
                | None -> ())
            readable;
          let linger_active =
            match t.linger_deadline with
            | Some deadline -> Clock.wall () < deadline
            | None -> false
          in
          if (not (Queue.is_empty t.queue)) && not linger_active then execute_queue t;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.clients fd with
              | Some c -> handle_writable t c
              | None -> ())
            writable;
          (* A batch may have queued fresh output on fds select never
             reported writable; flush eagerly so responses do not wait
             for the next readiness round. *)
          Hashtbl.iter (fun _ c -> if pending_out c > 0 then handle_writable t c) t.clients;
          loop ()
        end
      in
      loop ();
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.clients;
      Hashtbl.reset t.clients;
      set_gauges t;
      close_listen ();
      (* Graceful shutdown folds this process's cache counters into the
         persistent tier before the socket disappears. *)
      Noc_core.Mapping_cache.flush ();
      finish (Ok ())
  end
