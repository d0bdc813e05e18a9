(* The result cache's correctness bar: cached results are byte-identical
   to fresh ones (success and failure, with and without pruning, across
   the sweep layers), the codec round-trips Mapping.t exactly
   (including per-use-case slot state), and the disk tier degrades to a
   miss — never an error — on corruption or version mismatch. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Mapping = Noc_core.Mapping
module Codec = Noc_core.Mapping_codec
module MC = Noc_core.Mapping_cache
module Resources = Noc_core.Resources
module RC = Noc_util.Result_cache
module SD = Noc_benchkit.Soc_designs
module Syn = Noc_benchkit.Synthetic

let tmp_root =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nocmap-test-cache-%d" (Random.self_init (); Random.int 1_000_000))
  in
  Sys.mkdir dir 0o755;
  dir

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat tmp_root (string_of_int !n) in
    Sys.mkdir d 0o755;
    d

(* --- Result_cache: LRU, counters, disk tier ----------------------------- *)

let test_lru_eviction () =
  let c = RC.create ~encode:Option.some ~decode:Option.some ~capacity:2 ~version:"v" () in
  RC.add c "a" "1";
  RC.add c "b" "2";
  Alcotest.(check (option string)) "a present" (Some "1") (RC.find c "a");
  (* a is now most recent, so adding c evicts b *)
  RC.add c "c" "3";
  Alcotest.(check (option string)) "b evicted" None (RC.find c "b");
  Alcotest.(check (option string)) "a survives" (Some "1") (RC.find c "a");
  Alcotest.(check (option string)) "c present" (Some "3") (RC.find c "c");
  let s = RC.stats c in
  Alcotest.(check int) "one eviction" 1 s.RC.evictions;
  Alcotest.(check int) "three stores" 3 s.RC.stores;
  Alcotest.(check int) "one miss" 1 s.RC.misses;
  Alcotest.(check int) "three memory hits" 3 s.RC.memory_hits;
  Alcotest.(check int) "length tracks survivors" 2 (RC.length c)

let test_replace_and_clear () =
  let c = RC.create ~encode:Option.some ~decode:Option.some ~capacity:4 ~version:"v" () in
  RC.add c "k" "old";
  RC.add c "k" "new";
  Alcotest.(check (option string)) "replaced" (Some "new") (RC.find c "k");
  Alcotest.(check int) "no duplicate entry" 1 (RC.length c);
  RC.clear c;
  Alcotest.(check int) "cleared" 0 (RC.length c);
  Alcotest.(check (option string)) "miss after clear" None (RC.find c "k")

let test_disk_round_trip () =
  let dir = fresh_dir () in
  let payload = "line one\nline two \xff\x00 binary-ish" in
  let c1 = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"build-A" () in
  RC.add c1 "problem:1" payload;
  (* a different process = a fresh instance over the same directory *)
  let c2 = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"build-A" () in
  Alcotest.(check (option string)) "served from disk" (Some payload) (RC.find c2 "problem:1");
  Alcotest.(check int) "counted as disk hit" 1 (RC.stats c2).RC.disk_hits;
  (* promoted into memory: the second find is a memory hit *)
  ignore (RC.find c2 "problem:1");
  Alcotest.(check int) "promoted" 1 (RC.stats c2).RC.memory_hits;
  (* version mismatch never reads the other version's entries *)
  let c3 = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"build-B" () in
  Alcotest.(check (option string)) "other version misses" None (RC.find c3 "problem:1")

let entry_files dir =
  let rec walk d =
    Array.to_list (Sys.readdir d)
    |> List.concat_map (fun name ->
           let p = Filename.concat d name in
           if Sys.is_directory p then walk p else [ p ])
  in
  walk dir

let test_no_tmp_leftovers () =
  let dir = fresh_dir () in
  let c = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"v" () in
  for i = 0 to 19 do
    RC.add c (Printf.sprintf "k%d" i) (String.make 1000 'x')
  done;
  let leftovers =
    List.filter (fun p -> Filename.check_suffix p ".tmp") (entry_files dir)
  in
  Alcotest.(check int) "no temp files survive" 0 (List.length leftovers)

let corrupt_with f () =
  let dir = fresh_dir () in
  let c1 = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"v" () in
  RC.add c1 "key" "the payload";
  let files =
    List.filter (fun p -> Filename.check_suffix p ".entry") (entry_files dir)
  in
  Alcotest.(check int) "one entry on disk" 1 (List.length files);
  List.iter f files;
  let c2 = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"v" () in
  Alcotest.(check (option string)) "corruption degrades to miss" None (RC.find c2 "key");
  Alcotest.(check int) "counted as disk error" 1 (RC.stats c2).RC.disk_errors;
  (* the bad entry is dropped, so the next run doesn't re-parse it *)
  List.iter (fun p -> Alcotest.(check bool) "bad file removed" false (Sys.file_exists p)) files

let test_corrupt_truncated =
  corrupt_with (fun p ->
      let text = In_channel.with_open_bin p In_channel.input_all in
      Out_channel.with_open_bin p (fun oc ->
          output_string oc (String.sub text 0 (String.length text / 2))))

let test_corrupt_garbage =
  corrupt_with (fun p ->
      Out_channel.with_open_bin p (fun oc -> output_string oc "not a cache entry at all"))

let test_corrupt_payload_flip =
  corrupt_with (fun p ->
      let text = In_channel.with_open_bin p In_channel.input_all in
      let b = Bytes.of_string text in
      (* flip a byte near the end (inside the payload) *)
      let i = Bytes.length b - 2 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Out_channel.with_open_bin p (fun oc -> output_bytes oc b))

let test_persisted_stats () =
  let dir = fresh_dir () in
  let c = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"v" () in
  RC.add c "a" "1";
  ignore (RC.find c "a");
  ignore (RC.find c "nope");
  RC.persist_stats c;
  RC.persist_stats c (* second persist must not double-count *);
  (match RC.read_persisted_stats ~dir ~version:"v" with
  | None -> Alcotest.fail "expected persisted stats"
  | Some s ->
    Alcotest.(check int) "persisted stores" 1 s.RC.stores;
    Alcotest.(check int) "persisted hits" 1 s.RC.memory_hits;
    Alcotest.(check int) "persisted misses" 1 s.RC.misses);
  ignore (RC.find c "a");
  RC.persist_stats c;
  match RC.read_persisted_stats ~dir ~version:"v" with
  | None -> Alcotest.fail "expected persisted stats"
  | Some s -> Alcotest.(check int) "delta merged" 2 s.RC.memory_hits

let test_disk_summary_and_clear () =
  let dir = fresh_dir () in
  let a = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"A" () in
  let b = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"B" () in
  RC.add a "k1" "11";
  RC.add a "k2" "22";
  RC.add b "k1" "33";
  (match RC.disk_summary ~dir with
  | [ ("A", 2, _); ("B", 1, _) ] -> ()
  | other ->
    Alcotest.failf "unexpected summary: %s"
      (String.concat ";" (List.map (fun (v, n, s) -> Printf.sprintf "%s/%d/%d" v n s) other)));
  let removed = RC.clear_disk ~dir in
  Alcotest.(check bool) "removed at least the three entries" true (removed >= 3);
  Alcotest.(check (list (triple string int int))) "summary empty" [] (RC.disk_summary ~dir)

(* The codec is the disk boundary only: a store without a directory
   never encodes or decodes, and one with a directory encodes each
   [add] once. *)
let test_codec_only_at_disk () =
  let encodes = ref 0 and decodes = ref 0 in
  let c =
    RC.create ~version:"v"
      ~encode:(fun v -> incr encodes; Some v)
      ~decode:(fun v -> incr decodes; Some v)
      ()
  in
  RC.add c "k" "value";
  Alcotest.(check (option string)) "memory hit" (Some "value") (RC.find c "k");
  Alcotest.(check (pair int int)) "no codec calls without a dir" (0, 0) (!encodes, !decodes);
  RC.set_dir c (Some (fresh_dir ()));
  RC.add c "k2" "value2";
  Alcotest.(check int) "one encode per add with a dir" 1 !encodes;
  Alcotest.(check (option string)) "still a memory hit" (Some "value2") (RC.find c "k2");
  Alcotest.(check int) "memory hits never decode" 0 !decodes

(* A payload that passes the envelope check but that [decode] rejects
   is a disk error like any corruption: dropped, and a miss. *)
let test_undecodable_payload () =
  let dir = fresh_dir () in
  let c1 = RC.create ~encode:Option.some ~decode:Option.some ~dir ~version:"v" () in
  RC.add c1 "key" "not decodable";
  let c2 = RC.create ~encode:Option.some ~decode:(fun _ -> None) ~dir ~version:"v" () in
  Alcotest.(check (option string)) "undecodable = miss" None (RC.find c2 "key");
  let s = RC.stats c2 in
  Alcotest.(check int) "counted as disk error" 1 s.RC.disk_errors;
  Alcotest.(check int) "not a disk hit" 0 s.RC.disk_hits;
  Alcotest.(check (list string)) "entry removed" []
    (List.filter (fun p -> Filename.check_suffix p ".entry") (entry_files dir))

(* --- Build_info ---------------------------------------------------------- *)

let test_build_info () =
  let module B = Noc_util.Build_info in
  Alcotest.(check bool) "version nonempty" true (String.length B.version > 0);
  Alcotest.(check bool) "fingerprint nonempty" true (String.length (B.fingerprint ()) > 0);
  Alcotest.(check bool) "fingerprint stable" true (String.equal (B.fingerprint ()) (B.fingerprint ()));
  let d = B.describe () in
  Alcotest.(check bool) "describe embeds version" true
    (String.length d > String.length B.version
    && String.sub d 0 (String.length B.version) = B.version)

(* --- Mapping codec ------------------------------------------------------- *)

let encode_exn m =
  match Codec.encode m with
  | Some text -> text
  | None -> Alcotest.fail "expected an encodable (express-free) mapping"

let map_exn' = function
  | Ok m -> m
  | Error f -> Alcotest.failf "mapping failed: %a" (fun ppf -> Mapping.pp_failure ppf) f

let map_exn ~groups ucs = map_exn' (Mapping.map_design ~groups ucs)

let state_dump (m : Mapping.t) =
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun st ->
            Printf.sprintf "%d:%s:%s" (Resources.use_case st)
              (String.concat ","
                 (List.map (fun (l, s, o) -> Printf.sprintf "%d.%d.%d" l s o)
                    (Resources.reservations st)))
              (String.concat ","
                 (Array.to_list
                    (Array.map (Printf.sprintf "%h") (Resources.ni_budget_snapshot st)))))
          m.Mapping.states))

let check_round_trip name m =
  let text = encode_exn m in
  match Codec.decode text with
  | Error e -> Alcotest.failf "%s: decode failed: %s" name e
  | Ok m' ->
    Alcotest.(check string) (name ^ ": canonical re-encode") text (encode_exn m');
    Alcotest.(check string) (name ^ ": states restored exactly") (state_dump m) (state_dump m')

let test_codec_designs () =
  check_round_trip "example1" (map_exn ~groups:[ [ 0 ]; [ 1 ] ] SD.example1_use_cases);
  check_round_trip "d1"
    (let ucs = SD.d1 () in
     map_exn ~groups:(List.mapi (fun i _ -> [ i ]) ucs) ucs);
  (* a grouped (smooth-switching) design exercises shared configurations
     and passive-member slot reservations, which routes alone cannot
     reconstruct *)
  let ucs = SD.d2 () in
  check_round_trip "d2-grouped" (map_exn ~groups:[ List.mapi (fun i _ -> i) ucs ] ucs)

let test_codec_rejects () =
  let m = map_exn ~groups:[ [ 0 ]; [ 1 ] ] SD.example1_use_cases in
  let text = encode_exn m in
  let expect_error what t =
    match Codec.decode t with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decode accepted corrupt input" what
  in
  expect_error "empty" "";
  expect_error "wrong magic" ("nocmap-mapping 999\n" ^ text);
  expect_error "truncated" (String.sub text 0 (String.length text / 2));
  expect_error "trailing garbage" (text ^ "extra\n");
  expect_error "token garbage"
    (String.concat "\n"
       (List.mapi
          (fun i l -> if i = 3 then l ^ " 17" else l)
          (String.split_on_char '\n' text)));
  (* Hostile sizes must be refused before anything is allocated for
     them (each of these once ran the decoder out of memory). *)
  let d2 =
    let ucs = SD.d2 () in
    encode_exn (map_exn ~groups:(List.mapi (fun i _ -> [ i ]) ucs) ucs)
  in
  let edit_line prefix f =
    String.concat "\n"
      (List.map
         (fun l -> if String.starts_with ~prefix l then f l else l)
         (String.split_on_char '\n' d2))
  in
  expect_error "huge mesh" (edit_line "mesh " (fun _ -> "mesh mesh 30000 30000 3599880000"));
  expect_error "huge slot count"
    (edit_line "config "
       (fun l ->
         String.concat " "
           (List.mapi (fun i t -> if i = 3 then "1000000000" else t) (String.split_on_char ' ' l))))

(* --- cached = fresh, property-tested over random specs ------------------- *)

let small_params = { Syn.spread_params with cores = 8; flows_lo = 3; flows_hi = 8 }

let design_bytes = function
  | Ok m -> "ok:" ^ encode_exn m
  | Error f -> Format.asprintf "failed:%a" Mapping.pp_failure f

let prop_cached_byte_identical =
  QCheck.Test.make ~name:"cached = fresh, byte for byte (cold and warm)" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ucs = Syn.generate ~seed ~params:small_params ~use_cases:2 in
      let groups = List.mapi (fun i _ -> [ i ]) ucs in
      let run ~cache () =
        design_bytes (Mapping.map_design ?cache ~groups ucs)
      in
      MC.set_enabled false;
      let fresh = run ~cache:None () in
      MC.set_enabled true;
      MC.clear ();
      let cache = MC.design_cache ~groups ucs in
      let cold = run ~cache () in
      let hits_before = (MC.stats ()).RC.memory_hits in
      let warm = run ~cache () in
      let hits_after = (MC.stats ()).RC.memory_hits in
      String.equal fresh cold && String.equal cold warm && hits_after > hits_before)

(* A pruned run and a --no-prune run over the same cache agree: the
   pruned run stores only the sizes it attempted, and the --no-prune run
   attempts the rejected prefix itself, without changing the design. *)
let prop_negative_cache_no_prune =
  QCheck.Test.make ~name:"refutation cache: pruned run then --no-prune, same design" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ucs = Syn.generate ~seed ~params:small_params ~use_cases:2 in
      let groups = List.mapi (fun i _ -> [ i ]) ucs in
      MC.set_enabled false;
      let baseline = design_bytes (Mapping.map_design ~prune:false ~groups ucs) in
      MC.set_enabled true;
      MC.clear ();
      let cache = MC.design_cache ~groups ucs in
      let pruned = design_bytes (Mapping.map_design ~prune:true ?cache ~groups ucs) in
      let noprune = design_bytes (Mapping.map_design ~prune:false ?cache ~groups ucs) in
      String.equal baseline pruned && String.equal baseline noprune)

(* Certificate-rejected sizes are explained, never stored: a pruned
   D2 map that succeeds on its first admitted size stores exactly one
   entry, its design. *)
let test_pruned_map_stores_one_entry () =
  let ucs = SD.d2 () in
  let groups = List.mapi (fun i _ -> [ i ]) ucs in
  let pruned = Noc_obs.Metrics.counter "map.pruned" in
  MC.set_enabled true;
  MC.clear ();
  let stores_before = (MC.stats ()).RC.stores in
  let pruned_before = Noc_obs.Metrics.counter_value pruned in
  (match Mapping.map_design ~prune:true ?cache:(MC.design_cache ~groups ucs) ~groups ucs with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "D2 must map: %a" Mapping.pp_failure f);
  Alcotest.(check bool) "some sizes were pruned" true
    (Noc_obs.Metrics.counter_value pruned > pruned_before);
  Alcotest.(check int) "one store: the design" 1 ((MC.stats ()).RC.stores - stores_before)

(* The memory tier holds mappings themselves, so copy-on-store and
   copy-on-return are what keep cached runs equal to fresh ones: a
   caller that mutates what it got back must not change the next hit. *)
let test_hits_never_alias () =
  let ucs = SD.d2 () in
  let groups = List.mapi (fun i _ -> [ i ]) ucs in
  MC.set_enabled true;
  MC.clear ();
  let cache = Option.get (MC.design_cache ~groups ucs) in
  let fresh = map_exn' (Mapping.map_design ~cache ~groups ucs) in
  let original = Codec.digest fresh in
  let width = Mesh.width fresh.Mapping.mesh and height = Mesh.height fresh.Mapping.mesh in
  let lookup () =
    match cache.Mapping.lookup ~width ~height with
    | Some (Ok m) -> m
    | _ -> Alcotest.fail "expected a cached success"
  in
  let deface (m : Mapping.t) =
    m.Mapping.placement.(0) <- m.Mapping.placement.(0) + 1;
    let table = Resources.table m.Mapping.states.(0) 0 in
    match Noc_arch.Slot_table.free_slots table with
    | slot :: _ -> Noc_arch.Slot_table.reserve table ~slot ~owner:9999
    | [] -> Alcotest.fail "expected a free slot on link 0"
  in
  let hit = lookup () in
  Alcotest.(check (option string)) "hit equals the fresh design" original (Codec.digest hit);
  deface hit;
  deface fresh;
  Alcotest.(check bool) "defaced copy differs" true (Codec.digest hit <> original);
  Alcotest.(check (option string)) "second hit is the original" original (Codec.digest (lookup ()))

(* The codec runs only at the disk boundary, visible in a trace: a D2
   design flow without a cache dir records no codec span, and a cold
   one with a dir records exactly one encode (its one store). *)
let test_codec_spans () =
  let module Tracer = Noc_obs.Tracer in
  let spec = Noc_core.Design_flow.spec_of_use_cases ~name:"d2" (SD.d2 ()) in
  let codec_spans () =
    Tracer.set_enabled true;
    Tracer.reset ();
    (match Noc_core.Design_flow.run spec with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    Tracer.set_enabled false;
    let names = List.map (fun (e : Tracer.event) -> e.Tracer.name) (Tracer.events ()) in
    Tracer.reset ();
    ( List.length (List.filter (String.starts_with ~prefix:"mapping_codec.") names),
      List.length (List.filter (String.equal "mapping_codec.encode") names),
      List.mem "mapping_cache.digest" names )
  in
  MC.set_enabled true;
  MC.set_dir None;
  MC.clear ();
  let spans, _, digested = codec_spans () in
  Alcotest.(check int) "no codec span without a cache dir" 0 spans;
  Alcotest.(check bool) "the digest is traced" true digested;
  MC.clear ();
  MC.set_dir (Some (fresh_dir ()));
  let _, encodes, _ = codec_spans () in
  MC.set_dir None;
  Alcotest.(check int) "one encode in a cold run with a cache dir" 1 encodes

(* The sweep layers above the cache: explore and the min-frequency
   search return the same answers with the cache cold, warm and off. *)
let small_axes =
  {
    Noc_power.Design_space.frequencies = [ 250.0; 500.0 ];
    slot_counts = [ 16; 32 ];
    topologies = [ Mesh.Mesh ];
  }

let point_key p =
  Noc_power.Design_space.(p.freq_mhz, p.slots, p.switches, p.start = Warm)

let test_explore_cache_identity () =
  let ucs = Syn.generate ~seed:4242 ~params:small_params ~use_cases:2 in
  let groups = List.mapi (fun i _ -> [ i ]) ucs in
  let run () =
    List.map point_key
      (Noc_power.Design_space.explore ~axes:small_axes ~config:Config.default ~groups ucs)
  in
  MC.set_enabled false;
  let off = run () in
  MC.set_enabled true;
  MC.clear ();
  let cold = run () in
  let warm = run () in
  Alcotest.(check bool) "explore: off = cold" true (off = cold);
  Alcotest.(check bool) "explore: cold = warm" true (cold = warm)

let test_min_freq_cache_identity () =
  let ucs = SD.d1 () in
  let groups = List.mapi (fun i _ -> [ i ]) ucs in
  let mesh = Mesh.create ~width:2 ~height:2 in
  let run () =
    Noc_power.Min_freq.for_use_cases_on_mesh ~config:Config.default ~mesh ~groups ucs
  in
  MC.set_enabled false;
  let off = run () in
  MC.set_enabled true;
  MC.clear ();
  let cold = run () in
  let warm = run () in
  Alcotest.(check (option (float 1e-9))) "min-freq: off = cold" off cold;
  Alcotest.(check (option (float 1e-9))) "min-freq: cold = warm" cold warm

(* The whole stack over a real directory: a second "process" (fresh
   memory tier) replays the first one's design from disk, and corrupted
   entries silently recompute. *)
let test_disk_tier_end_to_end () =
  let dir = fresh_dir () in
  let ucs = SD.example1_use_cases in
  let groups = List.mapi (fun i _ -> [ i ]) ucs in
  MC.set_enabled true;
  MC.clear ();
  MC.set_dir (Some dir);
  let first = design_bytes (Mapping.map_design ?cache:(MC.design_cache ~groups ucs) ~groups ucs) in
  (* drop the memory tier, keep the disk: simulates a new CLI run *)
  let before = (MC.stats ()).RC.disk_hits in
  MC.set_dir None;
  MC.clear ();
  MC.set_dir (Some dir);
  let second = design_bytes (Mapping.map_design ?cache:(MC.design_cache ~groups ucs) ~groups ucs) in
  Alcotest.(check string) "disk replay is byte-identical" first second;
  Alcotest.(check bool) "served from disk" true ((MC.stats ()).RC.disk_hits > before);
  (* corrupt every entry: results must still be correct *)
  List.iter
    (fun p ->
      if Filename.check_suffix p ".entry" then
        Out_channel.with_open_bin p (fun oc -> output_string oc "garbage"))
    (entry_files dir);
  MC.set_dir None;
  MC.clear ();
  MC.set_dir (Some dir);
  let third = design_bytes (Mapping.map_design ?cache:(MC.design_cache ~groups ucs) ~groups ucs) in
  Alcotest.(check string) "corrupt store recomputes the same design" first third;
  MC.set_dir None

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  (* default state for this binary: cache on, no disk tier *)
  MC.set_enabled true;
  Alcotest.run "cache"
    [
      ( "result_cache",
        [
          Alcotest.test_case "LRU eviction and counters" `Quick test_lru_eviction;
          Alcotest.test_case "replace and clear" `Quick test_replace_and_clear;
          Alcotest.test_case "disk round-trip across instances" `Quick test_disk_round_trip;
          Alcotest.test_case "atomic writes leave no temp files" `Quick test_no_tmp_leftovers;
          Alcotest.test_case "truncated entry = miss" `Quick test_corrupt_truncated;
          Alcotest.test_case "garbage entry = miss" `Quick test_corrupt_garbage;
          Alcotest.test_case "payload bit-flip = miss" `Quick test_corrupt_payload_flip;
          Alcotest.test_case "persisted stats merge" `Quick test_persisted_stats;
          Alcotest.test_case "disk summary and clear" `Quick test_disk_summary_and_clear;
          Alcotest.test_case "codec runs only at the disk" `Quick test_codec_only_at_disk;
          Alcotest.test_case "undecodable payload = miss" `Quick test_undecodable_payload;
        ] );
      ("build_info", [ Alcotest.test_case "version and fingerprint" `Quick test_build_info ]);
      ( "codec",
        [
          Alcotest.test_case "round-trips real designs" `Quick test_codec_designs;
          Alcotest.test_case "rejects corrupt input" `Quick test_codec_rejects;
        ] );
      ( "cached_equals_fresh",
        [
          qcheck prop_cached_byte_identical;
          qcheck prop_negative_cache_no_prune;
          Alcotest.test_case "pruned map stores one entry" `Quick test_pruned_map_stores_one_entry;
          Alcotest.test_case "cache hits never alias" `Quick test_hits_never_alias;
          Alcotest.test_case "codec spans only at the disk" `Quick test_codec_spans;
          Alcotest.test_case "explore identical off/cold/warm" `Quick test_explore_cache_identity;
          Alcotest.test_case "min-freq identical off/cold/warm" `Quick test_min_freq_cache_identity;
          Alcotest.test_case "disk tier end to end" `Quick test_disk_tier_end_to_end;
        ] );
    ]
