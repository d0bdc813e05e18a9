(** Proof-carrying designs: an engine-independent certificate checker.

    The paper's central claim is that one NoC configuration serves
    every use-case with guaranteed throughput.  Until now that claim
    was vouched for by the same code that produced the design
    ({!Noc_core.Verify} shares {!Noc_arch.Tdma} and the routing
    helpers with the mapping engine).  This module is the
    independent auditor: it takes a finished design — built in this
    process or decoded from a {!Noc_core.Mapping_codec} dump of
    unknown provenance — and re-derives every guarantee from first
    principles, on a deliberately separate and simple code path:

    - {b slot exclusivity}: the (link, slot) claims implied by each
      route's starting slots (start [t] claims slot [t+i] on the
      [i]-th link) collide neither within a use-case nor with the
      recorded slot tables, and every recorded reservation is claimed
      by a route of its own switching group;
    - {b reserved bandwidth}: each guaranteed flow's granted slots
      deliver at least its contracted bandwidth;
    - {b route well-formedness}: paths are connected, loop-free
      switch chains on the mesh that agree with the core placement;
    - {b NI bounds}: switch NI capacity, per-core NI link budgets
      (when constrained) and the per-core NI buffer words the slot
      tables imply;
    - {b static worst-case latency}: a per-flow bound computed by
      slot-table phase analysis — the worst launch-to-delivery
      distance over all TDMA arrival offsets — with no simulation,
      checked against the flow's constraint.

    None of {!Noc_arch.Tdma}, {!Noc_core.Path_select} or
    {!Noc_core.Verify} is reused, so bugs in the engine (or a
    tampered dump) cannot hide behind shared code.  The result is a
    certificate record — design digest, per-flow bounds, findings —
    carrying a signature over its canonical rendering, so a stored
    certificate is tamper-evident.

    Cross-validation (test/test_certify.ml): on hundreds of random
    specs the event-core simulator's observed per-flow latencies never
    exceed the static bounds (and some flow meets its bound exactly),
    and every engine-produced design certifies clean, byte-identically
    to the test suite's reference engine's design. *)

type flow_bound = {
  use_case : int;
  flow_id : int;          (** the route's connection id *)
  src_core : int;
  dst_core : int;
  hops : int;
  granted_slots : int;    (** reserved starting slots *)
  bound_ns : float;       (** static worst-case latency ([infinity] for BE) *)
  required_ns : float;    (** the flow's constraint ([infinity] if none) *)
  slack_ns : float;       (** [required_ns -. bound_ns] *)
}

type finding = {
  check : string;   (** stable kebab-case check id, e.g. ["slot-owner"] *)
  use_case : int;   (** [-1] for design-global findings *)
  link : int;       (** link id for per-link findings, [-1] otherwise *)
  detail : string;
}

type t = {
  design : string;          (** design name the certificate speaks about *)
  digest : string option;   (** {!Noc_core.Mapping_codec.digest} of the design *)
  switches : int;
  use_cases : int;
  routes : int;
  checks : int;             (** individual checks executed *)
  findings : finding list;  (** empty iff the design certifies clean *)
  bounds : flow_bound list; (** per GT flow, in (use-case, flow) order *)
  ni_buffer_words : (int * int) list;
      (** [(core, words)] NI buffer provisioning the slot tables imply:
          per use-case source-side worst-service-gap buffers plus one
          reassembly payload per incoming connection, re-derived here
          (not via {!Noc_arch.Ni_buffer}), worst use-case per core *)
  signature : string;       (** MD5 over the canonical payload rendering *)
}

val certify : ?name:string -> Noc_core.Mapping.t -> Noc_traffic.Use_case.t list -> t
(** Certify a mapped design against the traffic it claims to serve.
    [use_cases] must be the full expanded list (base + compounds, see
    {!Noc_core.Design_flow.expand}); ids must equal list positions.
    The mapping may come from anywhere — the in-process engine or a
    decoded {!Noc_core.Mapping_codec} dump; nothing about how it was
    produced is trusted. *)

val clean : t -> bool

val static_bound_ns :
  config:Noc_arch.Noc_config.t -> slot_starts:int list -> hops:int -> float
(** The phase analysis by itself: worst over all arrival offsets [t]
    in one TDMA revolution of (wait from [t] to the next reserved
    start) + 1 launch slot + [hops] forwarding slots, as nanoseconds.
    [hops = 0] (same-switch) costs one slot; an empty start list with
    [hops > 0] is unbounded ([infinity]).  Agrees bit-for-bit with
    {!Noc_arch.Route.worst_case_latency_ns} on reserved connections —
    property-tested, since the two derivations share no code. *)

val signature_ok : t -> bool
(** Recompute the signature over the record's payload and compare. *)

val to_json : t -> Noc_export.Json.t
(** The full certificate record, signature included. *)

val to_diagnostics : t -> Diagnostic.t list
(** Findings as [certify-<check>] error diagnostics plus one
    [certify] info summary — the form [nocmap lint --deep] appends. *)

val render_text : t -> string

val exit_code : t -> int
(** 0 when clean, 2 otherwise — the [nocmap certify] convention
    (matching [nocmap lint]: exit = max severity, findings are
    errors). *)
