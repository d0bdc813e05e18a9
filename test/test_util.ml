(* Tests for Noc_util: PRNG, units, numeric helpers, table rendering. *)

module Rng = Noc_util.Rng
module Units = Noc_util.Units
module Numeric = Noc_util.Numeric
module Table = Noc_util.Ascii_table

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_int_in_range () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_covers_all_values () =
  let rng = Rng.create ~seed:9 in
  let seen = Array.make 6 false in
  for _ = 1 to 600 do
    seen.(Rng.int rng 6) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_rng_float_range () =
  let rng = Rng.create ~seed:10 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (x >= 0.0 && x < 3.5)
  done

let test_rng_float_mean () =
  let rng = Rng.create ~seed:11 in
  let xs = List.init 20000 (fun _ -> Rng.float rng 1.0) in
  let m = Numeric.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_chance_extremes () =
  let rng = Rng.create ~seed:12 in
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0);
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:13 in
  let xs = List.init 20000 (fun _ -> Rng.gaussian rng ~mean:5.0 ~stddev:2.0) in
  Alcotest.(check bool) "mean near 5" true (Float.abs (Numeric.mean xs -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (Numeric.stddev xs -. 2.0) < 0.1)

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create ~seed:14 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let parent = Rng.create ~seed:15 in
  let child = Rng.split parent in
  let a = Rng.bits64 child and b = Rng.bits64 parent in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_copy_preserves_state () =
  let a = Rng.create ~seed:16 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copies agree" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_pick_singleton () =
  let rng = Rng.create ~seed:17 in
  Alcotest.(check int) "only element" 99 (Rng.pick rng [| 99 |])

let test_rng_pick_empty_raises () =
  let rng = Rng.create ~seed:17 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:18 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement rng 5 20 in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20)) s;
    Alcotest.(check (list int)) "sorted" (List.sort compare s) s
  done

let test_sample_full () =
  let rng = Rng.create ~seed:19 in
  Alcotest.(check (list int)) "k=n takes all" [ 0; 1; 2 ]
    (Rng.sample_without_replacement rng 3 3)

(* --- Units ----------------------------------------------------------- *)

let test_link_capacity_paper_point () =
  (* The paper's Sec 6.2 operating point: 500 MHz x 32 bit = 2000 MB/s. *)
  check_float "500MHz x 32bit" 2000.0 (Units.link_capacity ~freq_mhz:500.0 ~width_bits:32)

let test_cycle_ns () =
  check_float "500 MHz = 2 ns" 2.0 (Units.cycle_ns 500.0);
  check_float "1 GHz = 1 ns" 1.0 (Units.cycle_ns 1000.0)

let test_mbps_per_slot () =
  check_float "2000/32" 62.5 (Units.mbps_per_slot ~capacity:2000.0 ~slots:32)

let test_slots_needed () =
  Alcotest.(check int) "zero bw" 0 (Units.slots_needed ~bw:0.0 ~capacity:2000.0 ~slots:32);
  Alcotest.(check int) "tiny bw rounds up" 1 (Units.slots_needed ~bw:0.1 ~capacity:2000.0 ~slots:32);
  Alcotest.(check int) "exact slot" 1 (Units.slots_needed ~bw:62.5 ~capacity:2000.0 ~slots:32);
  Alcotest.(check int) "just over" 2 (Units.slots_needed ~bw:62.6 ~capacity:2000.0 ~slots:32);
  Alcotest.(check int) "full link" 32 (Units.slots_needed ~bw:2000.0 ~capacity:2000.0 ~slots:32)

(* Beyond [max_int] slots [int_of_float] is unspecified; the count
   saturates so the demand stays unmeetable. *)
let test_slots_needed_saturates () =
  let needed bw = Units.slots_needed ~bw ~capacity:2000.0 ~slots:32 in
  Alcotest.(check int) "1e300" max_int (needed 1e300);
  Alcotest.(check int) "inf" max_int (needed infinity);
  Alcotest.(check int) "nan" max_int (needed nan);
  Alcotest.(check int) "large but countable" 16_000_000_000 (needed 1e12)

(* --- Numeric --------------------------------------------------------- *)

let test_mean () =
  check_float "mean" 2.0 (Numeric.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty" 0.0 (Numeric.mean [])

let test_geometric_mean () =
  check_float "gm of 1,4" 2.0 (Numeric.geometric_mean [ 1.0; 4.0 ])

let test_stddev () =
  check_float "constant" 0.0 (Numeric.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "2,4,4,4,5,5,7,9" 2.0 (Numeric.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_clamp () =
  check_float "below" 0.0 (Numeric.clamp ~lo:0.0 ~hi:1.0 (-3.0));
  check_float "above" 1.0 (Numeric.clamp ~lo:0.0 ~hi:1.0 7.0);
  check_float "inside" 0.5 (Numeric.clamp ~lo:0.0 ~hi:1.0 0.5);
  Alcotest.(check int) "int clamp" 3 (Numeric.clamp_int ~lo:1 ~hi:3 9)

let test_round_to () =
  check_float "2 digits" 3.14 (Numeric.round_to ~digits:2 3.14159)

let test_percent () =
  check_float "half" 50.0 (Numeric.percent ~part:1.0 ~whole:2.0);
  check_float "zero whole" 0.0 (Numeric.percent ~part:1.0 ~whole:0.0)

let test_linspace () =
  Alcotest.(check (list (float 1e-9))) "0..1 in 3" [ 0.0; 0.5; 1.0 ]
    (Numeric.linspace ~lo:0.0 ~hi:1.0 ~n:3)

(* --- Ascii_table ----------------------------------------------------- *)

let test_table_renders_aligned () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "10"; "200" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_pads_short_rows () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_rejects_long_rows () =
  let t = Table.create ~header:[ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Ascii_table.add_row: too many cells") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_left_align () =
  let t = Table.create ~header:[ "aaaa"; "b" ] in
  Table.add_row t [ "x"; "y" ];
  let s = Table.render ~align:Table.Left t in
  (match String.split_on_char '\n' s with
  | _header :: _sep :: row :: _ ->
    Alcotest.(check bool) "left-aligned cell starts at col 0" true (row.[0] = 'x')
  | _ -> Alcotest.fail "row missing");
  let r = Table.render ~align:Table.Right t in
  match String.split_on_char '\n' r with
  | _header :: _sep :: row :: _ ->
    Alcotest.(check bool) "right-aligned cell padded" true (row.[0] = ' ')
  | _ -> Alcotest.fail "row missing"

let test_table_float_row () =
  let t = Table.create ~header:[ "label"; "x" ] in
  Table.add_float_row t "row" [ 1.5 ];
  let s = Table.render t in
  Alcotest.(check bool) "contains formatted float" true
    (String.length s > 0
    &&
    let found = ref false in
    String.iteri (fun i _ -> if i + 5 <= String.length s && String.sub s i 5 = "1.500" then found := true) s;
    !found)

(* --- qcheck properties ----------------------------------------------- *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in stays in bounds" ~count:500
    QCheck.(triple small_int small_int small_int)
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Rng.create ~seed in
      let x = Rng.int_in rng lo hi in
      x >= lo && x <= hi)

let prop_sample_sorted_distinct =
  QCheck.Test.make ~name:"sample_without_replacement sorted+distinct" ~count:200
    QCheck.(pair small_int (int_bound 50))
    (fun (seed, n) ->
      let n = max 1 n in
      let rng = Rng.create ~seed in
      let k = 1 + (seed mod n) in
      let s = Rng.sample_without_replacement rng (min k n) n in
      List.sort_uniq compare s = s)

let prop_clamp_idempotent =
  QCheck.Test.make ~name:"clamp is idempotent" ~count:500
    QCheck.(triple (float_bound_exclusive 100.0) (float_bound_exclusive 100.0) float)
    (fun (a, b, x) ->
      let lo = Float.min a b and hi = Float.max a b in
      let once = Numeric.clamp ~lo ~hi x in
      Numeric.clamp ~lo ~hi once = once)

let prop_slots_needed_sufficient =
  QCheck.Test.make ~name:"slots_needed grants at least bw" ~count:500
    QCheck.(pair (float_bound_exclusive 2000.0) (int_range 1 64))
    (fun (bw, slots) ->
      let bw = Float.abs bw in
      let n = Units.slots_needed ~bw ~capacity:2000.0 ~slots in
      float_of_int n *. Units.mbps_per_slot ~capacity:2000.0 ~slots >= bw -. 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_int_in_bounds; prop_sample_sorted_distinct; prop_clamp_idempotent; prop_slots_needed_sufficient ]

let () =
  Alcotest.run "noc_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in_range;
          Alcotest.test_case "int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int covers values" `Quick test_rng_int_covers_all_values;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_is_permutation;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy preserves state" `Quick test_rng_copy_preserves_state;
          Alcotest.test_case "pick singleton" `Quick test_rng_pick_singleton;
          Alcotest.test_case "pick empty raises" `Quick test_rng_pick_empty_raises;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample k=n" `Quick test_sample_full;
        ] );
      ( "units",
        [
          Alcotest.test_case "paper link capacity" `Quick test_link_capacity_paper_point;
          Alcotest.test_case "cycle ns" `Quick test_cycle_ns;
          Alcotest.test_case "per-slot bandwidth" `Quick test_mbps_per_slot;
          Alcotest.test_case "slots needed" `Quick test_slots_needed;
          Alcotest.test_case "slots needed saturates" `Quick test_slots_needed_saturates;
        ] );
      ( "numeric",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "round_to" `Quick test_round_to;
          Alcotest.test_case "percent" `Quick test_percent;
          Alcotest.test_case "linspace" `Quick test_linspace;
        ] );
      ( "ascii_table",
        [
          Alcotest.test_case "aligned render" `Quick test_table_renders_aligned;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "rejects long rows" `Quick test_table_rejects_long_rows;
          Alcotest.test_case "alignment" `Quick test_table_left_align;
          Alcotest.test_case "float row" `Quick test_table_float_row;
        ] );
      ("properties", qcheck_cases);
    ]
