type t = {
  mutable prio : float array;
  mutable value : int array;
  mutable size : int;
}

let create ?(capacity = 8) () =
  let capacity = max 1 capacity in
  { prio = Array.make capacity 0.0; value = Array.make capacity 0; size = 0 }

let is_empty t = t.size = 0
let length t = t.size

let swap t i j =
  let p = t.prio.(i) and v = t.value.(i) in
  t.prio.(i) <- t.prio.(j);
  t.value.(i) <- t.value.(j);
  t.prio.(j) <- p;
  t.value.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(i) < t.prio.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.prio.(l) < t.prio.(!smallest) then smallest := l;
  if r < t.size && t.prio.(r) < t.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let cap = Array.length t.prio in
  let prio = Array.make (2 * cap) 0.0 and values = Array.make (2 * cap) 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.value 0 values 0 t.size;
  t.prio <- prio;
  t.value <- values

(* [push] and [min_priority] are inlined at their call sites, so a
   priority computed there reaches the array without a float box. *)
let[@inline] push t ~priority value =
  if t.size = Array.length t.prio then grow t;
  t.prio.(t.size) <- priority;
  t.value.(t.size) <- value;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let[@inline] min_priority t =
  if t.size = 0 then invalid_arg "Priority_queue.min_priority: empty";
  t.prio.(0)

let pop t =
  if t.size = 0 then invalid_arg "Priority_queue.pop: empty";
  let top = t.value.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prio.(0) <- t.prio.(t.size);
    t.value.(0) <- t.value.(t.size);
    sift_down t 0
  end;
  top

let pop_min t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(0) in
    Some (p, pop t)
  end

let peek_min t = if t.size = 0 then None else Some (t.prio.(0), t.value.(0))

let clear t = t.size <- 0
