(** Span-based tracer with per-domain buffers and Chrome
    [trace_event] export.

    Spans are hierarchical (a per-domain stack tracks the open
    ancestors), carry wall + CPU time and typed attributes, and are
    recorded into a per-domain buffer owned exclusively by the
    recording domain — no lock is taken on the recording path, only
    when a new domain registers its buffer or at export time.

    Tracing is off by default.  When disabled, [with_span] costs one
    atomic load and runs the thunk directly: no allocation, no
    timestamps.  Instrumentation is passive — it never perturbs RNG
    state, iteration order, or scheduling decisions — so a traced run
    produces byte-identical designs and exports to an untraced one
    (pinned by property tests in [test_obs]). *)

type value = Bool of bool | Int of int | Float of float | Str of string

type event = {
  name : string;
  cat : string;
  domain : int;  (** id of the domain that recorded the span *)
  depth : int;  (** number of enclosing spans open on that domain *)
  start_ns : int64;
  dur_ns : int64;
  cpu_s : float;  (** process-CPU seconds elapsed during the span *)
  args : (string * value) list;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_span : ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The span is closed (and recorded)
    even if the thunk raises.  Closing a span also feeds its duration
    into the metrics histogram [span.<name>] (milliseconds), so a
    traced run gets p50/p90/p99 per span name for free.

    Call sites on warm-but-not-hot paths may pass [?args] directly;
    genuinely hot call sites should guard with [enabled] first so the
    attribute list is not allocated when tracing is off. *)

val add_arg : string -> value -> unit
(** Attach an attribute to the innermost open span of the calling
    domain (no-op when tracing is disabled or no span is open). *)

val events : unit -> event list
(** All recorded spans, sorted by (start, domain, depth) — a stable,
    deterministic order for tests and exporters. *)

val reset : unit -> unit
(** Drop all recorded spans (buffers stay registered).  Open spans on
    other domains are left alone; the caller is expected to reset
    between runs, not mid-span. *)

val export_chrome : unit -> string
(** Chrome [trace_event] JSON ("JSON object format"): complete ["X"]
    events with microsecond [ts]/[dur] rebased to the earliest span,
    [pid]/[tid] from the recording domain, attributes under [args],
    plus [thread_name] metadata per domain.  Loadable in Perfetto /
    chrome://tracing. *)

val write_file : string -> string -> unit
(** [write_file path contents]: small helper used by the CLI exporters. *)
