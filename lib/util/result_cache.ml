module Metrics = Noc_obs.Metrics

(* Every instance also mirrors its counters into the process-wide
   metrics registry, so [nocmap obs stats], [--metrics] dumps and the
   bench snapshot see cache behaviour without holding the instance. *)
let m_memory_hits = Metrics.counter "cache.memory_hits"
let m_disk_hits = Metrics.counter "cache.disk_hits"
let m_misses = Metrics.counter "cache.misses"
let m_evictions = Metrics.counter "cache.evictions"
let m_stores = Metrics.counter "cache.stores"
let m_disk_errors = Metrics.counter "cache.disk_errors"

type stats = {
  memory_hits : int;
  disk_hits : int;
  misses : int;
  evictions : int;
  stores : int;
  disk_errors : int;
}

let zero_stats =
  { memory_hits = 0; disk_hits = 0; misses = 0; evictions = 0; stores = 0; disk_errors = 0 }

let add_stats a b =
  {
    memory_hits = a.memory_hits + b.memory_hits;
    disk_hits = a.disk_hits + b.disk_hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    stores = a.stores + b.stores;
    disk_errors = a.disk_errors + b.disk_errors;
  }

(* Memory tier: hash table plus an intrusive circular doubly-linked
   list of keys through a sentinel; the node after the sentinel is the
   most recently used, the one before it the eviction victim. *)
type node = {
  key : string;
  mutable prev : node;
  mutable next : node;
}

type 'a entry = { node : node; value : 'a }

type 'a t = {
  version : string;
  cap : int;
  encode : 'a -> string option;
  decode : string -> 'a option;
  table : (string, 'a entry) Hashtbl.t;
  sentinel : node;
  mutable dir : string option;
  lock : Mutex.t;
  mutable memory_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stores : int;
  mutable disk_errors : int;
  (* Snapshot of the counters at the last [persist_stats], so repeated
     persists only add the delta. *)
  mutable persisted : stats;
}

let make_sentinel () =
  let rec s = { key = ""; prev = s; next = s } in
  s

let create ?(capacity = 1024) ?dir ~version ~encode ~decode () =
  {
    version;
    cap = max 1 capacity;
    encode;
    decode;
    table = Hashtbl.create 64;
    sentinel = make_sentinel ();
    dir;
    lock = Mutex.create ();
    memory_hits = 0;
    disk_hits = 0;
    misses = 0;
    evictions = 0;
    stores = 0;
    disk_errors = 0;
    persisted = zero_stats;
  }

let version t = t.version
let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> Hashtbl.length t.table)

let set_dir t d = locked t (fun () -> t.dir <- d)
let dir t = locked t (fun () -> t.dir)

let unlink_node n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

(* Caller holds the lock. *)
let mem_insert t key value =
  (match Hashtbl.find_opt t.table key with
  | Some old ->
    unlink_node old.node;
    Hashtbl.remove t.table key
  | None -> ());
  let node = { key; prev = t.sentinel; next = t.sentinel } in
  push_front t node;
  Hashtbl.replace t.table key { node; value };
  if Hashtbl.length t.table > t.cap then begin
    let victim = t.sentinel.prev in
    unlink_node victim;
    Hashtbl.remove t.table victim.key;
    t.evictions <- t.evictions + 1;
    Metrics.incr m_evictions
  end

(* --- disk tier ---------------------------------------------------------- *)

let magic = "nocmap-cache 1"
let stats_file = "STATS"

let version_dir ~dir ~version = Filename.concat dir ("v-" ^ version)

(* Keys carry structure (digest plus a kind tag and mesh size); the
   file name is a fresh digest of the whole key, and the entry embeds
   the key itself so a (vanishingly unlikely) digest collision reads as
   corruption, not as a wrong answer. *)
let entry_file ~dir ~version key =
  Filename.concat (version_dir ~dir ~version) (Digest.to_hex (Digest.string key) ^ ".entry")

let mkdir_p path =
  let rec mk p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ -> ()
    end
  in
  mk path

let render_entry ~version ~key payload =
  String.concat "\n"
    [ magic; version; key; Digest.to_hex (Digest.string payload); payload ]

(* [Some payload] only when every integrity check passes. *)
let parse_entry ~version ~key text =
  let split_line s =
    match String.index_opt s '\n' with
    | None -> None
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let ( let* ) = Option.bind in
  let* l1, rest = split_line text in
  let* l2, rest = split_line rest in
  let* l3, rest = split_line rest in
  let* l4, payload = split_line rest in
  if
    String.equal l1 magic && String.equal l2 version && String.equal l3 key
    && String.equal l4 (Digest.to_hex (Digest.string payload))
  then Some payload
  else None

(* Atomic publish: write next to the destination, then rename.  A
   concurrent writer of the same key publishes a byte-identical entry,
   so whichever rename lands last is equally valid. *)
let atomic_write ~path text =
  mkdir_p (Filename.dirname path);
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:(Filename.dirname path) ~mode:[ Open_binary ]
      ".cache-write" ".tmp"
  in
  (try
     output_string oc text;
     close_out oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

let count_disk_error t =
  locked t (fun () ->
      t.disk_errors <- t.disk_errors + 1;
      Metrics.incr m_disk_errors)

(* Runs outside the lock: file I/O and [decode] may be slow, and
   counters are the only shared state they touch. *)
let disk_read t ~dir key =
  let path = entry_file ~dir ~version:t.version key in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None (* absent: a plain miss, not an error *)
  | text -> (
    match Option.bind (parse_entry ~version:t.version ~key text) t.decode with
    | Some _ as found -> found
    | None ->
      (* Corrupt, stale-format or undecodable: drop it so it is
         rewritten. *)
      count_disk_error t;
      (try Sys.remove path with Sys_error _ -> ());
      None)

let disk_write t ~dir key payload =
  try atomic_write ~path:(entry_file ~dir ~version:t.version key) (render_entry ~version:t.version ~key payload)
  with _ -> count_disk_error t

(* --- public operations -------------------------------------------------- *)

let find t key =
  let in_memory =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
          unlink_node e.node;
          push_front t e.node;
          t.memory_hits <- t.memory_hits + 1;
          Metrics.incr m_memory_hits;
          Ok e.value
        | None -> Error t.dir)
  in
  match in_memory with
  | Ok value -> Some value
  | Error dir ->
    let from_disk = Option.bind dir (fun dir -> disk_read t ~dir key) in
    locked t (fun () ->
        match from_disk with
        | Some value ->
          t.disk_hits <- t.disk_hits + 1;
          Metrics.incr m_disk_hits;
          mem_insert t key value;
          Some value
        | None ->
          t.misses <- t.misses + 1;
          Metrics.incr m_misses;
          None)

let add t key value =
  let dir =
    locked t (fun () ->
        mem_insert t key value;
        t.stores <- t.stores + 1;
        Metrics.incr m_stores;
        t.dir)
  in
  match dir with
  | None -> ()
  | Some dir -> Option.iter (disk_write t ~dir key) (t.encode value)

let stats t =
  locked t (fun () ->
      {
        memory_hits = t.memory_hits;
        disk_hits = t.disk_hits;
        misses = t.misses;
        evictions = t.evictions;
        stores = t.stores;
        disk_errors = t.disk_errors;
      })

let is_entry name = Filename.check_suffix name ".entry"
let is_tmp name = String.length name >= 12 && String.sub name 0 12 = ".cache-write"

let remove_version_files vdir =
  let removed = ref 0 in
  (match Sys.readdir vdir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if is_entry name || is_tmp name || String.equal name stats_file then begin
          try
            Sys.remove (Filename.concat vdir name);
            incr removed
          with Sys_error _ -> ()
        end)
      names);
  !removed

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.sentinel.next <- t.sentinel;
      t.sentinel.prev <- t.sentinel;
      match t.dir with
      | None -> ()
      | Some dir -> ignore (remove_version_files (version_dir ~dir ~version:t.version)))

(* --- persisted statistics ---------------------------------------------- *)

let stats_to_text (s : stats) =
  Printf.sprintf "memory_hits %d\ndisk_hits %d\nmisses %d\nevictions %d\nstores %d\ndisk_errors %d\n"
    s.memory_hits s.disk_hits s.misses s.evictions s.stores s.disk_errors

let stats_of_text text =
  let get name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; v ] when String.equal n name -> int_of_string_opt v
           | _ -> None)
  in
  match
    ( get "memory_hits", get "disk_hits", get "misses", get "evictions", get "stores",
      get "disk_errors" )
  with
  | Some memory_hits, Some disk_hits, Some misses, Some evictions, Some stores, Some disk_errors
    -> Some { memory_hits; disk_hits; misses; evictions; stores; disk_errors }
  | _ -> None

let read_persisted_stats ~dir ~version =
  let path = Filename.concat (version_dir ~dir ~version) stats_file in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> stats_of_text text

let persist_stats t =
  locked t (fun () ->
      match t.dir with
      | None -> ()
      | Some dir ->
        let now =
          {
            memory_hits = t.memory_hits;
            disk_hits = t.disk_hits;
            misses = t.misses;
            evictions = t.evictions;
            stores = t.stores;
            disk_errors = t.disk_errors;
          }
        in
        let delta =
          {
            memory_hits = now.memory_hits - t.persisted.memory_hits;
            disk_hits = now.disk_hits - t.persisted.disk_hits;
            misses = now.misses - t.persisted.misses;
            evictions = now.evictions - t.persisted.evictions;
            stores = now.stores - t.persisted.stores;
            disk_errors = now.disk_errors - t.persisted.disk_errors;
          }
        in
        let existing =
          Option.value (read_persisted_stats ~dir ~version:t.version) ~default:zero_stats
        in
        (try
           atomic_write
             ~path:(Filename.concat (version_dir ~dir ~version:t.version) stats_file)
             (stats_to_text (add_stats existing delta));
           t.persisted <- now
         with _ -> ()))

(* --- store-wide maintenance (CLI) --------------------------------------- *)

let versions_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           if
             String.length name > 2
             && String.sub name 0 2 = "v-"
             && Sys.is_directory (Filename.concat dir name)
           then Some (String.sub name 2 (String.length name - 2))
           else None)
    |> List.sort compare

let disk_summary ~dir =
  List.map
    (fun version ->
      let vdir = version_dir ~dir ~version in
      let entries = ref 0 and bytes = ref 0 in
      (match Sys.readdir vdir with
      | exception Sys_error _ -> ()
      | names ->
        Array.iter
          (fun name ->
            if is_entry name then begin
              incr entries;
              match In_channel.with_open_bin (Filename.concat vdir name) In_channel.length with
              | exception Sys_error _ -> ()
              | len -> bytes := !bytes + Int64.to_int len
            end)
          names);
      (version, !entries, !bytes))
    (versions_under dir)

let clear_disk ~dir =
  List.fold_left
    (fun removed version ->
      let vdir = version_dir ~dir ~version in
      let n = remove_version_files vdir in
      (try Sys.rmdir vdir with Sys_error _ -> ());
      removed + n)
    0 (versions_under dir)
