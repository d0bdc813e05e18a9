(* Fixed-size cyclic bitset over [0, slots).  Bits live in 62-bit
   words so the sign bit of the native int is never touched; the
   common TDMA table sizes (<= 62 slots) fit one word, where cyclic
   rotate-and-intersect is three shifts and two ands. *)

let word_bits = 62

type t = { slots : int; words : int array }

let full_word width = (1 lsl width) - 1

let fill t =
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- full_word (min word_bits (t.slots - (i * word_bits)))
  done

let create ~slots ~full =
  if slots <= 0 then invalid_arg "Bitmask.create: need positive slot count";
  let t = { slots; words = Array.make ((slots + word_bits - 1) / word_bits) 0 } in
  if full then fill t;
  t

let slots t = t.slots

let copy t = { t with words = Array.copy t.words }

let check_index t i =
  if i < 0 || i >= t.slots then invalid_arg "Bitmask: index out of range"

let mem t i =
  check_index t i;
  (t.words.(i / word_bits) lsr (i mod word_bits)) land 1 = 1

let set t i =
  check_index t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod word_bits))

let clear t i =
  check_index t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod word_bits))

let count t =
  let total = ref 0 in
  Array.iter
    (fun w ->
      let w = ref w in
      while !w <> 0 do
        w := !w land (!w - 1);
        incr total
      done)
    t.words;
  !total

let is_empty t = Array.for_all (( = ) 0) t.words

(* [into := into intersect rot(t, shift)] where bit [i] of the rotation
   is bit [(i + shift) mod slots] of [t] — exactly the alignment of a
   TDMA slot table seen [shift] hops downstream. *)
let inter_rotated ~into t ~shift =
  if into.slots <> t.slots then invalid_arg "Bitmask.inter_rotated: size mismatch";
  let s = t.slots in
  let h = ((shift mod s) + s) mod s in
  if Array.length t.words = 1 then begin
    let m = t.words.(0) in
    let rot = if h = 0 then m else ((m lsr h) lor (m lsl (s - h))) land full_word s in
    into.words.(0) <- into.words.(0) land rot
  end
  else
    for i = 0 to s - 1 do
      if mem into i && not (mem t ((i + h) mod s)) then clear into i
    done

let next_set_from t i =
  if i < 0 then invalid_arg "Bitmask.next_set_from: negative index";
  if i >= t.slots then None
  else begin
    let found = ref None in
    let w = ref (i / word_bits) in
    let n = Array.length t.words in
    (* mask off the bits below [i] in its word, then scan whole words *)
    let bits = ref (t.words.(!w) land lnot ((1 lsl (i mod word_bits)) - 1)) in
    while !found = None && !w < n do
      if !bits <> 0 then begin
        (* index of the lowest set bit *)
        let b = !bits land -(!bits) in
        let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
        found := Some ((!w * word_bits) + log2 b 0)
      end
      else begin
        incr w;
        if !w < n then bits := t.words.(!w)
      end
    done;
    !found
  end

let indices_into t out =
  let n = ref 0 in
  Array.iteri
    (fun w bits ->
      let bits = ref bits and i = ref (w * word_bits) in
      while !bits <> 0 do
        if !bits land 1 = 1 then begin
          out.(!n) <- !i;
          incr n
        end;
        bits := !bits lsr 1;
        incr i
      done)
    t.words;
  !n

let to_list t =
  let acc = ref [] in
  for i = t.slots - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc

let pp ppf t =
  for i = 0 to t.slots - 1 do
    Format.pp_print_char ppf (if mem t i then '1' else '.')
  done
