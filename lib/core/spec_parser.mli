(** Textual design-spec format.

    Lets a user describe a multi-use-case SoC in a plain file and run
    the whole flow from the command line ([nocmap map --spec FILE]).
    The format, line-oriented, [#] starts a comment:

    {v
    name set-top-box        # optional; defaults to the supplied name
    cores 7

    use-case video
      flow 0 -> 1 bw 100
      flow 1 -> 2 bw 75 lat 500       # latency bound in ns
      flow 2 -> 3 bw 40 be            # best-effort: no reservation

    use-case record
      flow 0 -> 4 bw 120

    parallel video record             # these may run concurrently
    smooth video record               # these need smooth switching
    v}

    Use-case names must be declared before they are referenced by
    [parallel]/[smooth]; ids are assigned in declaration order.

    Reading is two stages: {!parse_doc} tokenizes, {!check} resolves.
    {!check} is the only walk that resolves a document; [parse] (what
    [map], [certify], [explore], [remap] and the daemon use) and
    [nocmap lint] both read a spec through it, so they accept the
    same specs and name the same first error line. *)

type error = {
  line : int;     (** 1-based line of the offending text *)
  message : string;
}

(** One parsed declaration.  [Bad] keeps the message of a line that
    failed tokenization or shape checks, so a document with syntax
    errors can still be analyzed as a whole. *)
type event =
  | Name of string
  | Cores of int
  | Use_case_decl of string
  | Flow_decl of Noc_traffic.Flow.t  (** attached to the enclosing use-case *)
  | Parallel of string list
  | Smooth of string * string
  | Bad of string

type doc = {
  doc_name : string;  (** fallback design name (e.g. the file name) *)
  events : (int * event) list;
      (** declarations with their 1-based source lines, in file order *)
}

val parse_doc : name:string -> string -> doc
(** Tokenize a spec into located declarations.  Never fails: lines
    that do not parse become [Bad] events.  Semantic checks (core
    counts, name resolution, flow validation) happen in {!check}. *)

type finding = {
  pass : string;  (** stable kebab-case check id, e.g. ["dangling-ref"] *)
  severity : [ `Error | `Warning ];
  at : int option;  (** 1-based source line, when the finding has one *)
  text : string;
}

val check : doc -> finding list * Design_flow.spec option
(** Resolve a document leniently: the only code that walks its
    events.  Every problem becomes a finding instead of aborting, so
    one broken line does not hide the defects after it, and a
    best-effort spec is still assembled from the declarations that
    survive ([None] only when [cores] or every use-case is missing).
    Findings come in walk order: the per-line checks by line, then the
    reference and use-case checks; [Noc_analysis.Spec_lint] renders
    them as diagnostics.

    Errors: [syntax] (a [Bad] line), [cores], [missing-cores],
    [no-use-cases], [duplicate-use-case], [orphan-flow], [self-flow],
    [zero-bandwidth], [flow-range], [nonpositive-latency],
    [be-latency], [parallel-arity], [dangling-ref], [forward-ref],
    [duplicate-ref] (a [parallel] set naming a use-case twice),
    [self-smooth].  Warnings: [duplicate-flow], [unreachable-use-case],
    [duplicate-ref] (a repeated [smooth] pair, which stays in the
    spec), [redundant-smooth].

    With no error finding the spec always expands: a [smooth] pair of
    one use-case with itself and a [parallel] set naming a use-case
    twice are errors here, not left to {!Design_flow.expand} to raise. *)

val resolve : doc -> (Design_flow.spec, error) result
(** {!check}, strictly: [Ok] when there is no error finding, otherwise
    the earliest error — the lowest line, with unlocated findings last
    (reported on line 0), ties broken by check id and text, the order
    [nocmap lint] sorts diagnostics in. *)

val parse : name:string -> string -> (Design_flow.spec, error) result
(** [resolve] of [parse_doc]: parse a complete spec document.  [name]
    is the fallback design name (e.g. the file name). *)

val parse_file : string -> (Design_flow.spec, error) result
(** Read and [parse] a file; I/O failures surface as an [error] on
    line 0. *)

val to_text : Design_flow.spec -> string
(** Render a spec back into the textual format ([parse] of the result
    reproduces the spec — used by tests as a round-trip property). *)

val pp_error : Format.formatter -> error -> unit
