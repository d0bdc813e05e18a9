let check_tables tables =
  let n = Array.length tables in
  if n = 0 then invalid_arg "Tdma: empty path";
  let s = Slot_table.slots tables.(0) in
  Array.iter
    (fun t -> if Slot_table.slots t <> s then invalid_arg "Tdma: slot-table size mismatch")
    tables;
  s

let start_is_free ~tables ~start =
  let _ = check_tables tables in
  let ok = ref true in
  Array.iteri (fun hop table -> if not (Slot_table.is_free table (start + hop)) then ok := false) tables;
  !ok

(* A start [t] claims slot [t + hop] on the [hop]-th link, so the set
   of feasible starts is the intersection of every hop's free mask
   rotated by its hop number — one rotate-and-AND per hop instead of a
   slots x hops probe loop. *)
let free_start_mask ~tables =
  let s = check_tables tables in
  let acc = Bitmask.create ~slots:s ~full:true in
  Array.iteri
    (fun hop table -> Bitmask.inter_rotated ~into:acc (Slot_table.free_mask table) ~shift:hop)
    tables;
  acc

let free_starts ~tables = Bitmask.to_list (free_start_mask ~tables)

(* Pick [count] starts out of the candidates, spreading them around
   the revolution to minimise the worst waiting gap: repeatedly take
   the candidate closest to the ideal evenly-spaced position (the
   lowest index on a tie). *)
let mark_spread ~slots ~candidates ~n ~count ~taken =
  Bytes.fill taken 0 n '\000';
  for k = 0 to count - 1 do
    let ideal =
      if k = 0 then candidates.(0) else (candidates.(0) + (k * slots / count)) mod slots
    in
    let best = ref (-1) in
    let best_d = ref max_int in
    for i = 0 to n - 1 do
      if Bytes.get taken i = '\000' then begin
        let d = abs (candidates.(i) - ideal) in
        let d = Int.min d (slots - d) in
        if d < !best_d then begin
          best_d := d;
          best := i
        end
      end
    done;
    Bytes.set taken !best '\001'
  done

let marked_starts ~candidates ~n ~taken =
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.get taken i <> '\000' then acc := candidates.(i) :: !acc
  done;
  !acc

let marked_max_gap ~slots ~candidates ~n ~taken =
  let marked = ref 0 and first = ref 0 and last = ref 0 and gap = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get taken i <> '\000' then begin
      let s = candidates.(i) in
      if !marked = 0 then first := s else gap := Int.max !gap (s - !last);
      last := s;
      incr marked
    end
  done;
  if !marked = 0 then invalid_arg "Tdma.max_start_gap: no starts";
  Int.max !gap (!first + slots - !last)

let choose_spread ~slots ~candidates ~count =
  if count <= 0 then Some []
  else begin
    let candidates = Array.of_list (List.sort_uniq compare candidates) in
    let n = Array.length candidates in
    if n < count then None
    else begin
      let taken = Bytes.create n in
      mark_spread ~slots ~candidates ~n ~count ~taken;
      Some (marked_starts ~candidates ~n ~taken)
    end
  end

let find_aligned ~tables ~count =
  let s = check_tables tables in
  choose_spread ~slots:s ~candidates:(free_starts ~tables) ~count

let reserve ~tables ~owner ~starts =
  let _ = check_tables tables in
  List.iter
    (fun start ->
      Array.iteri (fun hop table -> Slot_table.reserve table ~slot:(start + hop) ~owner) tables)
    starts

let release ~tables ~owner =
  Array.iter (fun table -> ignore (Slot_table.release_owner table ~owner)) tables

(* A packet arriving just after start s_i waits until s_{i+1}: the
   largest gap between consecutive starts, cyclically. *)
let max_start_gap ~slots ~starts =
  let candidates = Array.of_list (List.sort_uniq compare starts) in
  let n = Array.length candidates in
  marked_max_gap ~slots ~candidates ~n ~taken:(Bytes.make n '\001')

let worst_case_latency_ns ~config ~starts ~hops =
  let gap = max_start_gap ~slots:config.Noc_config.slots ~starts in
  float_of_int (gap + hops) *. Noc_config.slot_duration_ns config
