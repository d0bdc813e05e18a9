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
    [parallel]/[smooth]; ids are assigned in declaration order. *)

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
    counts, name resolution, flow validation) happen in {!resolve} —
    or leniently in the [Noc_analysis] lint passes, which is why the
    two stages are separate. *)

val resolve : doc -> (Design_flow.spec, error) result
(** Replay a document's events with the full semantic checks; the
    first offending declaration (or [Bad] line) aborts with its source
    line.  A resolved spec always expands: a [smooth] pair of one
    use-case with itself and a [parallel] set naming a use-case twice
    are rejected here, not left to {!Design_flow.expand} to raise. *)

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
