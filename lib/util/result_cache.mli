(** Content-addressed result store: one bounded in-process LRU of
    values over an optional persistent on-disk tier.

    Keys are canonical digests of a problem instance; values are kept
    as they are, so the memory tier memoizes within a process (sweeps
    and searches re-solving identical sub-problems) without any
    serialisation.  The codec given to {!create} runs only at the disk
    boundary: [encode] when an [add] has a directory to write to,
    [decode] when a [find] reads an entry back.  Both run outside the
    store's lock.

    Correctness contract:
    - the store never invents data: [find] only returns a value a prior
      [add] stored under the same key, or the [decode] of bytes such an
      [add] encoded, in a store created with the same [version];
    - disk entries carry the store version, the full key and a payload
      digest; a corrupted, truncated or version-mismatched file, or a
      payload [decode] rejects, degrades to a miss (and is dropped),
      never an error;
    - disk writes go through a temp file and an atomic rename, so a
      crashed or concurrent writer can never leave a torn entry behind;
    - every operation is safe to call concurrently from
      {!Domain_pool} workers. *)

type stats = {
  memory_hits : int;
  disk_hits : int;   (** misses in memory served by the disk tier *)
  misses : int;      (** not found in either tier *)
  evictions : int;   (** LRU drops from the memory tier *)
  stores : int;      (** successful [add]s *)
  disk_errors : int; (** unreadable/corrupt/mismatched disk entries seen *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type 'a t

val create :
  ?capacity:int ->
  ?dir:string ->
  version:string ->
  encode:('a -> string option) ->
  decode:(string -> 'a option) ->
  unit ->
  'a t
(** A fresh store.  [capacity] bounds the memory tier (entry count,
    default 1024, clamped to at least 1).  [dir] attaches the disk
    tier; entries live under [dir/v-<version>/].  [encode] returning
    [None] keeps that value in memory only; [decode] returning [None]
    marks a disk payload as unusable. *)

val version : 'a t -> string
val capacity : 'a t -> int
val length : 'a t -> int
(** Entries currently held by the memory tier. *)

val set_dir : 'a t -> string option -> unit
(** Attach or detach the disk tier (the [--cache-dir] knob). *)

val dir : 'a t -> string option

val find : 'a t -> string -> 'a option
(** Memory first, then disk.  A decoded disk hit is promoted into the
    memory tier. *)

val add : 'a t -> string -> 'a -> unit
(** Store under [key] in memory, and on disk when a directory is
    attached and [encode] represents the value.  An existing entry is
    replaced.  Disk failures are swallowed: the memory tier always
    succeeds. *)

val stats : 'a t -> stats
(** Counters since creation (this process only; see
    {!persist_stats}). *)

val clear : 'a t -> unit
(** Empty the memory tier and delete this version's disk entries.
    Counters are kept. *)

val persist_stats : 'a t -> unit
(** Fold the counters accumulated since the last persist into the
    version directory's [STATS] file (read-merge-rename; no-op without
    a disk tier).  Registered [at_exit] by callers that attach a
    directory, so [nocmap cache stats] can report cumulative traffic. *)

val read_persisted_stats : dir:string -> version:string -> stats option
(** The cumulative persisted counters of one version directory. *)

val disk_summary : dir:string -> (string * int * int) list
(** Per version under [dir]: (version, entry count, payload bytes),
    sorted by version.  Unreadable directories count as empty. *)

val clear_disk : dir:string -> int
(** Delete every version's entries and stats under [dir]; returns how
    many files were removed.  Only files matching the store layout are
    touched. *)
