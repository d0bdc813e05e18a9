(** Minimal JSON construction and syntax checking.

    A small value type with one serializer (correct string escaping,
    locale-independent float printing) that writes either a string or
    a channel, plus a strict syntax validator used by the tests and
    available to consumers of exported files.  No external
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize; [indent > 0] pretty-prints with that step. *)

val to_channel : ?indent:int -> out_channel -> t -> unit
(** [to_channel ?indent oc v] writes exactly the bytes of
    [to_string ?indent v] to [oc], handing them over in chunks of about
    64 KB, so no copy of the whole document is built.  It does not
    flush [oc]. *)

val escape : string -> string
(** JSON string escaping (quotes not included), the same rewriting
    the serializer applies to keys and string values. *)

val validate : string -> (unit, string) result
(** Strict RFC-8259-style syntax check of a complete JSON document. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document into a value (same strict grammar
    as [validate]).  Numbers without a fraction or exponent that fit
    in [int] parse as [Int]; everything else numeric as [Float]. *)

val member : string -> t -> t option
(** [member k v] is field [k] of object [v]; [None] on non-objects. *)

val to_float : t -> float option
(** Numeric coercion: [Int] and [Float] only. *)
