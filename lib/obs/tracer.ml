type value = Bool of bool | Int of int | Float of float | Str of string

type event = {
  name : string;
  cat : string;
  domain : int;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
  cpu_s : float;
  args : (string * value) list;
}

type frame = {
  f_name : string;
  f_cat : string;
  f_depth : int;
  f_start : int64;
  f_cpu0 : float;
  f_args : (string * value) list;
  mutable f_extra : (string * value) list;  (* add_arg, reverse order *)
}

(* One buffer per domain, owned exclusively by that domain: the
   recording path pushes/pops frames and conses events without any
   lock.  The global registry (mutex-protected) only sees the buffer
   when the domain first records, and again at export/reset time. *)
type buffer = {
  b_domain : int;
  mutable b_events : event list;  (* reverse chronological *)
  mutable b_stack : frame list;
}

let flag = Atomic.make false
let enabled () = Atomic.get flag
let set_enabled b = Atomic.set flag b

let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b = { b_domain = (Domain.self () :> int); b_events = []; b_stack = [] } in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let my_buffer () = Domain.DLS.get key

let close_span buf frame =
  let dur = Int64.sub (Clock.now_ns ()) frame.f_start in
  let dur = if Int64.compare dur 0L < 0 then 0L else dur in
  let cpu = Clock.cpu () -. frame.f_cpu0 in
  (match buf.b_stack with
  | top :: rest when top == frame -> buf.b_stack <- rest
  | _ :: rest -> buf.b_stack <- rest  (* defensive: unbalanced close *)
  | [] -> ());
  buf.b_events <-
    {
      name = frame.f_name;
      cat = frame.f_cat;
      domain = buf.b_domain;
      depth = frame.f_depth;
      start_ns = frame.f_start;
      dur_ns = dur;
      cpu_s = cpu;
      args = frame.f_args @ List.rev frame.f_extra;
    }
    :: buf.b_events;
  Metrics.observe
    (Metrics.histogram ("span." ^ frame.f_name))
    (Int64.to_float dur /. 1e6)

let with_span ?(cat = "nocmap") ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let buf = my_buffer () in
    let frame =
      {
        f_name = name;
        f_cat = cat;
        f_depth = List.length buf.b_stack;
        f_start = Clock.now_ns ();
        f_cpu0 = Clock.cpu ();
        f_args = args;
        f_extra = [];
      }
    in
    buf.b_stack <- frame :: buf.b_stack;
    match f () with
    | v ->
      close_span buf frame;
      v
    | exception e ->
      frame.f_extra <- ("raised", Bool true) :: frame.f_extra;
      close_span buf frame;
      raise e
  end

let add_arg name v =
  if enabled () then begin
    let buf = my_buffer () in
    match buf.b_stack with
    | frame :: _ -> frame.f_extra <- (name, v) :: frame.f_extra
    | [] -> ()
  end

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  bs

let events () =
  let all = List.concat_map (fun b -> b.b_events) (buffers ()) in
  List.sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> (
        match compare a.domain b.domain with 0 -> compare a.depth b.depth | c -> c)
      | c -> c)
    all

let reset () =
  List.iter (fun b -> b.b_events <- []) (buffers ())

(* --- exporters ---------------------------------------------------------- *)

let value_json = function
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> Obs_json.float_repr f
  | Str s -> Obs_json.quote s

let us_of_ns ns = Int64.to_float ns /. 1e3

let export_chrome () =
  let evs = events () in
  let base = match evs with [] -> 0L | e :: _ -> e.start_ns in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n  ";
    Buffer.add_string buf line
  in
  let domains =
    List.sort_uniq compare (List.map (fun (e : event) -> e.domain) evs)
  in
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", \"args\": {\"name\": \"domain-%d\"}}"
           d d))
    domains;
  List.iter
    (fun (e : event) ->
      let args =
        (("cpu_ms", Float (e.cpu_s *. 1e3)) :: e.args)
        |> List.map (fun (k, v) -> Obs_json.quote k ^ ": " ^ value_json v)
        |> String.concat ", "
      in
      emit
        (Printf.sprintf
           "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %s, \"dur\": %s, \"args\": {%s}}"
           (Obs_json.quote e.name) (Obs_json.quote e.cat) e.domain
           (Obs_json.float_repr (us_of_ns (Int64.sub e.start_ns base)))
           (Obs_json.float_repr (us_of_ns e.dur_ns))
           args))
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
