(** Wire protocol of [nocmap serve]: line-delimited JSON over a Unix
    domain socket.

    Every message is one JSON object on one line ([\n]-terminated); no
    message ever contains a raw newline (strings are JSON-escaped).
    A connection opens with a handshake, then carries any number of
    request/response pairs:

    + the server sends a {e greeting}
      [{"proto":1,"server":"nocmap","build":FP}];
    + the client answers with a {e hello} [{"proto":1,"build":FP}].
      The server replies [{"ok":true,"build":FP}] when the protocol
      version and build fingerprint both match its own, or an [error]
      object with code [version-mismatch] (then closes) — a served
      mapping is only byte-reproducible by the exact build that
      produced it, so mismatched clients are rejected outright;
    + each request carries a client-chosen [id], echoed verbatim in
      the response.  Responses may be reordered across requests of one
      connection (the scheduler batches across clients), so the [id]
      is the only correlation.

    Success responses carry the result as an opaque [payload] string:
    the {e exact bytes} the equivalent one-shot CLI command would have
    written ([nocmap map --json], [explore --json], [lint --json],
    [certify --json], [remap --json]) — see {!Payload}.  Failure
    responses carry a machine-readable {!error_code}; the load-shed
    codes ([overloaded], [too-many-inflight]) also carry
    [retry_after_ms], the server's suggested backoff. *)

val proto_version : int
(** Current protocol version (1). *)

type op_config = {
  freq_mhz : float;  (** NoC operating frequency, MHz *)
  slots : int;  (** TDMA slot-table size *)
  nis_per_switch : int;  (** max NIs per switch *)
  xy : bool;  (** XY routing instead of min-cost *)
}
(** The config knobs a request may override — exactly the CLI design
    flags ([--freq], [--slots], [--nis-per-switch], [--xy]). *)

val default_config : op_config
(** The knobs of {!Noc_arch.Noc_config.default}; the CLI flags take
    their defaults from here. *)

val to_noc_config : op_config -> Noc_arch.Noc_config.t
(** The full {!Noc_arch.Noc_config.t} a request's knobs denote (other
    fields from [Noc_config.default]). *)

type op =
  | Ping  (** liveness check; empty payload *)
  | Map of { name : string; spec : string; config : op_config }
      (** design the spec; payload = [nocmap map --json] bytes.
          [name] is the fallback design name used when the spec text
          has no [name] line (the CLI derives it from the file name) *)
  | Explore of {
      name : string;
      spec : string;
      config : op_config;
      frequencies : float list option;  (** [None] = CLI default axis *)
      slot_counts : int list option;  (** [None] = CLI default axis *)
      torus : bool;  (** also sweep torus grids (CLI [--torus]) *)
    }  (** design-space sweep; payload = [nocmap explore --json] bytes *)
  | Lint of { name : string; spec : string; config : op_config; deep : bool }
      (** static analysis; payload = [nocmap lint --json] bytes *)
  | Certify of { name : string; spec : string; config : op_config }
      (** design + independent certification; payload =
          [nocmap certify --json] bytes *)
  | Remap of { from_name : string; from_spec : string; to_name : string; to_spec : string; config : op_config }
      (** incremental churn; payload = [nocmap remap --json] bytes *)
  | Stats  (** payload = the server's metrics registry as JSON *)
  | Shutdown
      (** begin graceful shutdown: drain admitted work, flush the disk
          cache tier, refuse new work, then exit.  Acknowledged last. *)

type request = { id : int; op : op }

type error_code =
  | Overloaded  (** admission queue full — load shed, retry later *)
  | Too_many_inflight  (** per-client in-flight cap hit — retry later *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Bad_request  (** unparsable or ill-formed request object *)
  | Spec_error  (** the carried spec text failed to parse/resolve *)
  | Exec_error  (** the operation itself failed (e.g. unmappable) *)
  | Version_mismatch  (** handshake: wrong protocol or build *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

type response =
  | Result of { id : int; payload : string; coalesced : bool }
      (** [coalesced]: this payload was computed once for several
          identical in-flight requests and fanned out *)
  | Failure of {
      id : int;
      code : error_code;
      message : string;
      retry_after_ms : int option;
    }

(* --- encoding ------------------------------------------------------------ *)

val greeting : unit -> string
(** The server's first line (includes this build's fingerprint). *)

val hello : ?build:string -> unit -> string
(** The client's first line; [build] defaults to this process's own
    fingerprint. *)

val hello_ok : unit -> string
val hello_reject : message:string -> string

val check_greeting : string -> (string, string) result
(** Client side: validate a greeting line, return the server build. *)

val check_hello : string -> (unit, string) result
(** Server side: validate a hello line against this build. *)

val hello_verdict : string -> (unit, string) result
(** Client side: parse the server's reply to the hello. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

val escape_payload : string -> string
(** JSON string escaping of a payload (quotes not included). *)

val encode_result_preescaped :
  id:int -> coalesced:bool -> escaped_payload:string -> string
(** Byte-identical to [encode_response (Result _)], with the payload
    already escaped — the server escapes a coalesced payload once and
    fans the bytes out to every requester. *)

val response_id : response -> int
