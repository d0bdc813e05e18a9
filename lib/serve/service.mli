(** The one execution path of the five spec-consuming operations
    ([map], [explore], [lint], [certify], [remap]), independent of any
    socket.

    {!prepare} turns a wire {!Protocol.op} into a validated {e job};
    {!run} executes it to a typed {!Payload.outcome}, and
    {!Payload.render} turns that into the response bytes.  Both front
    ends take this path: a one-shot [nocmap] command builds the same
    {!Protocol.op} that [nocmap client] sends and runs it here in
    process, while the daemon's {!Server} select loop admits ops
    through {!prepare_cached}, coalesces a batch with {!plan} and runs
    it with {!execute_batch}.  The coalescing and batching semantics
    stay unit-testable without sockets.

    {2 Single-flight coalescing}

    A job's {!key} is derived from {!Noc_core.Mapping_cache}'s
    canonical problem digest (config knobs, groups, IEEE-exact flows —
    names excluded) plus the operation and its flags, so two requests
    whose {e problems} are identical coalesce even when their spec
    texts differ cosmetically.  The key is computed on first use, so a
    one-shot run never pays for it.  Within a batch, each distinct key
    computes once and the payload fans out to every requester; across
    batches, the shared {!Noc_util.Result_cache} replays the stored
    attempts, so an identical problem still computes at most once per
    process lifetime.  Payloads are deterministic (pinned repo-wide),
    hence fanning out one computation is byte-indistinguishable from
    running every request alone. *)

type job
(** A validated, executable request. *)

val key : job -> string
(** The canonical single-flight key (digest-based, stable across
    processes of the same build). *)

val spec : job -> Noc_core.Design_flow.spec option
(** The parsed spec of a [map] or [certify] job, for the CLI paths
    that use it without running the job ([map --wc],
    [certify --from]). *)

val prepare : Protocol.op -> (job, Protocol.error_code * string) result
(** Parse and validate an executable operation ([Map]/[Explore]/
    [Lint]/[Certify]/[Remap]).  A spec that fails to parse or resolve
    is a [Spec_error] carrying the located message (prefixed with the
    revision's name for [Remap]).  A config {!Noc_arch.Noc_config.validate}
    rejects is a [Bad_request] for every operation but [Lint], which
    reports it as a [config] diagnostic.  Control operations
    ([Ping]/[Stats]/[Shutdown]) are the server's business and return
    [Bad_request] here. *)

val prepare_cached : Protocol.op -> (job, Protocol.error_code * string) result
(** {!prepare} memoized on a digest of the whole op, with the key
    computed on admission: under coalescing load the same bytes arrive
    many times, and re-parsing a large spec per request dominates the
    warm path (it scales per {e request} where everything downstream
    scales per {e distinct key}).  The server admits through this. *)

type plan = {
  unique : job array;  (** distinct jobs, first-seen order *)
  assign : int array;  (** per input index, the index into [unique] *)
  coalesced : int;  (** inputs beyond the first per key *)
}

val plan : job array -> plan

val run :
  ?prune:bool ->
  ?refine:bool ->
  ?post:(Noc_core.Design_flow.t -> (unit, string) result) ->
  ?warm:bool ->
  job ->
  (Payload.outcome, string) result
(** Execute one job inline.  [Error] carries the operation's own
    failure (an unmappable spec, say).  The optional arguments are the
    CLI's engine and escape-hatch flags, each defaulting to the
    daemon's behaviour.  These two change only how the outcome is
    found, never the outcome: [prune] (default [true]; [--no-prune])
    skips certified-infeasible sizes, and [warm] (default [true];
    [--cold]) seeds explore points from solved neighbours.  The remap
    oracle is no option here: it is the same call with the cache off
    ([--no-cache]).  [refine] (default [false];
    [map --refine]) adds the annealing refinement and [post] a final
    design-flow phase ([map --certify]); both apply to [map] only. *)

val execute : job -> (string, string) result
(** {!run} with the defaults, rendered by {!Payload.render}: the
    daemon's response payload. *)

val execute_batch : job array -> (string, string) result array
(** {!execute} the distinct jobs of a batch (callers pass
    [plan.unique]) on the shared {!Noc_util.Domain_pool}.  An exception
    escaping a job becomes that slot's [Error]; never raises. *)
