module Config = Noc_arch.Noc_config
module Route = Noc_arch.Route
module Activation = Noc_arch.Activation
module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let m_runs = Metrics.counter "sim.runs"
let m_slots = Metrics.counter "sim.slots"
let m_collisions = Metrics.counter "sim.collisions"

(* Event-core effectiveness: slots the selected core actually stepped
   vs. slots it proved idle and jumped over.  The reference tick loop
   steps everything, so its runs count only events. *)
let m_events = Metrics.counter "sim.events"
let m_skipped = Metrics.counter "sim.skipped_slots"

type conn_stats = {
  flow_id : int;
  src_core : int;
  dst_core : int;
  service : Route.service;
  offered_mbps : float;
  delivered_mbps : float;
  mean_latency_ns : float;
  max_latency_ns : float;
  bound_ns : float;
  final_backlog_bytes : float;
  max_backlog_bytes : float;
}

type result = {
  duration_slots : int;
  slot_ns : float;
  collisions : int;
  conns : conn_stats list;
}

type source =
  | Fluid
  | On_off of {
      period_slots : int;
      duty : float;
    }
  | Replay of Trace.t

type core =
  [ `Event     (* activation-indexed calendar core: skips idle slots *)
  | `Reference (* the pinned tick loop: steps every slot *) ]

type chunk = {
  arrival_ns : float;
  mutable ready_ns : float;  (* earliest instant the next hop may move it *)
  mutable bytes : float;
}

(* A connection's running totals.  All-float, so OCaml stores the
   fields flat: every read boxes afresh and no two result fields ever
   share a box, whichever core wrote them ([Marshal], which the
   equivalence tests compare, encodes sharing). *)
type acc = {
  mutable delivered : float;
  mutable backlog : float;
  mutable backlog_peak : float;
  mutable latency_sum : float;
  mutable latency_max : float;
  mutable latency_bytes : float;
}

type conn_state = {
  idx : int;                       (* position in the route list *)
  route : Route.t;
  source : source;                 (* resolved once, not per slot *)
  starts : bool array;             (* GT: may we launch in this slot? *)
  gt_transit_ns : float;           (* launch-to-delivery time of a GT flit *)
  hop_queues : chunk Queue.t array; (* queue i: waiting to traverse link i;
                                       a single queue for GT and same-switch *)
  acc : acc;
}

(* Per-link best-effort service state, in first-traversal order (the
   deterministic arbitration order both cores share). *)
type be_entry = {
  link : int;
  bconns : (conn_state * int) array; (* (connection, hop) traversing this link *)
  rr : int ref;                      (* round-robin arbitration pointer *)
  free_mask : int list;              (* slot phases the GT schedule leaves free *)
  mutable armed : bool;              (* event core: free_mask armed in the wheel? *)
}

(* The sources indexed by flow id.  All [sources] problems are
   rejected before the first slot runs: unknown flow ids (a typo would
   silently fall back to Fluid otherwise), a flow id named twice,
   malformed on/off shapes, invalid traces. *)
let index_sources ~sources ~routes =
  let route_ids = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace route_ids r.Route.flow_id ()) routes;
  let by_flow = Hashtbl.create 16 in
  List.iter
    (fun (flow_id, source) ->
      if not (Hashtbl.mem route_ids flow_id) then
        invalid_arg
          (Printf.sprintf "Simulator: source for unknown flow id %d" flow_id);
      if Hashtbl.mem by_flow flow_id then
        invalid_arg (Printf.sprintf "Simulator: two sources for flow id %d" flow_id);
      (match source with
      | Fluid -> ()
      | On_off { period_slots; duty } ->
        if period_slots <= 0 then invalid_arg "Simulator: non-positive burst period";
        if duty <= 0.0 || duty > 1.0 then invalid_arg "Simulator: duty must be in (0,1]"
      | Replay trace -> (
        match Trace.validate trace with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Simulator: bad trace: " ^ msg)));
      Hashtbl.replace by_flow flow_id source)
    sources;
  by_flow

let take_from_queue ~budget ~now_ns ~transit_ns queue ~deliver st =
  (* Move up to [budget] ready bytes out of [queue]; [deliver] consumes
     them (recording latency), otherwise the caller re-enqueues them
     downstream, ready one slot later (a flit advances one hop per
     slot). *)
  let moved = ref [] in
  let budget = ref budget in
  let blocked = ref false in
  while (not !blocked) && !budget > 1e-12 && not (Queue.is_empty queue) do
    let chunk = Queue.peek queue in
    if chunk.ready_ns > now_ns +. 1e-9 then blocked := true
    else begin
      let take = Float.min chunk.bytes !budget in
      chunk.bytes <- chunk.bytes -. take;
      budget := !budget -. take;
      if deliver then begin
        let a = st.acc in
        a.delivered <- a.delivered +. take;
        a.backlog <- a.backlog -. take;
        let lat = now_ns +. transit_ns -. chunk.arrival_ns in
        a.latency_sum <- a.latency_sum +. (lat *. take);
        a.latency_bytes <- a.latency_bytes +. take;
        if lat > a.latency_max then a.latency_max <- lat
      end
      else
        moved :=
          { arrival_ns = chunk.arrival_ns; ready_ns = now_ns +. transit_ns; bytes = take }
          :: !moved;
      if chunk.bytes <= 1e-12 then ignore (Queue.pop queue)
    end
  done;
  List.rev !moved

(* Shapes are validated once in [index_sources]; here only the
   arithmetic remains. *)
let arrival_bytes ~source ~bw ~slot_ns ~t =
  match source with
  | Fluid -> bw /. 1000.0 *. slot_ns
  | Replay _ -> 0.0 (* replay arrivals are injected event by event *)
  | On_off { period_slots; duty } ->
    let on_slots = Float.max 1.0 (Float.round (duty *. float_of_int period_slots)) in
    let phase = t mod period_slots in
    if float_of_int phase < on_slots then
      (* the whole cycle's traffic arrives during the ON phase *)
      bw /. 1000.0 *. slot_ns *. (float_of_int period_slots /. on_slots)
    else 0.0

let push_arrival st ~arrival_ns ~ready_ns ~bytes =
  Queue.push { arrival_ns; ready_ns; bytes } st.hop_queues.(0);
  let a = st.acc in
  a.backlog <- a.backlog +. bytes;
  if a.backlog > a.backlog_peak then a.backlog_peak <- a.backlog

(* Inject every pending trace event falling inside this slot. *)
let drain_replay st pending ~now_ns ~horizon =
  let rec go () =
    match !pending with
    | e :: rest when e.Trace.at_ns < horizon ->
      pending := rest;
      push_arrival st ~arrival_ns:(Float.max e.Trace.at_ns now_ns) ~ready_ns:now_ns
        ~bytes:e.Trace.bytes;
      go ()
    | _ -> ()
  in
  go ()

(* One link's BE service for one slot: round-robin pick of a stream
   with queued traffic, then forward one slot payload of it — shared
   verbatim by both cores so their float operations agree bit for
   bit.  [on_idle] fires when every stream's queue is empty; the event
   core uses it to disarm the link.  [on_forward st hop] fires when
   chunks were pushed into [st]'s hop+1 queue. *)
let serve_be_link ~now_ns ~slot_ns ~payload_bytes entry ~on_idle ~on_forward =
  let arr = entry.bconns in
  let n = Array.length arr in
  let chosen = ref None in
  let i = ref 0 in
  while !chosen = None && !i < n do
    let idx = (!(entry.rr) + !i) mod n in
    let st, hop = arr.(idx) in
    if not (Queue.is_empty st.hop_queues.(hop)) then chosen := Some (idx, st, hop);
    incr i
  done;
  match !chosen with
  | None -> on_idle ()
  | Some (idx, st, hop) ->
    entry.rr := (idx + 1) mod n;
    let last = hop = Array.length st.hop_queues - 1 in
    if last then
      ignore
        (take_from_queue ~budget:payload_bytes ~now_ns ~transit_ns:slot_ns
           st.hop_queues.(hop) ~deliver:true st)
    else begin
      let moved =
        take_from_queue ~budget:payload_bytes ~now_ns ~transit_ns:slot_ns st.hop_queues.(hop)
          ~deliver:false st
      in
      List.iter (fun c -> Queue.push c st.hop_queues.(hop + 1)) moved;
      if moved <> [] then on_forward st hop
    end

(* A fluid or on/off source as [(bytes, period, on)]: [bytes] arrive
   in each slot whose phase in a [period]-slot cycle is below [on] (a
   fluid source is [period = on = 1]).  The byte amounts are the exact
   expressions [arrival_bytes] evaluates, hoisted.  [None] for a
   replay source. *)
let arrival_shape ~slot_ns st =
  let bw = st.route.Route.bandwidth in
  match st.source with
  | Fluid -> Some (bw /. 1000.0 *. slot_ns, 1, 1)
  | On_off { period_slots = p; duty } ->
    let on_slots = Float.max 1.0 (Float.round (duty *. float_of_int p)) in
    (* [float_of_int max_int] rounds up past [max_int] *)
    let on = if on_slots >= float_of_int p then p else int_of_float on_slots in
    Some (bw /. 1000.0 *. slot_ns *. (float_of_int p /. on_slots), p, on)
  | Replay _ -> None

(* The GT pass: one GT connection with a fluid or on/off source, run
   alone over the whole horizon.  Nothing else touches its state — its
   launches are its own reserved starts, it owns a single queue, and BE
   traffic only uses the slots GT leaves free — so it needs no
   calendar.  Its source adds the same [bytes] in every ON slot (phase
   [< on] of a [period]-slot cycle; a fluid source is [period = on =
   1]), so the queue is implicit: the head chunk's slot [head] and
   remaining bytes [rem], and the last pushed slot [last] (empty when
   [head > last]); the chunk behind the head is the next ON slot's.
   Each slot performs exactly the reference's float operations in its
   order — [push_arrival], then [take_from_queue ~deliver:true] on a
   reserved start (a GT queue is never blocked: every chunk is ready
   from its arrival slot) — without allocating.  Slots where neither
   can happen are jumped: with the queue empty through an OFF phase
   up to the next ON slot, with it backlogged there between reserved
   starts. *)
let run_alone ~slots ~slot_ns ~payload_bytes ~duration_slots st ~bytes ~period ~on =
  let a = st.acc in
  let starts = st.starts in
  let transit_ns = st.gt_transit_ns in
  (* [gap.(s)]: slots from phase [s] to the next reserved start, [s]
     itself included; [max_int] when there is none.  Only OFF phases
     read it. *)
  let gap =
    if on >= period then [||]
    else begin
      let gap = Array.make slots max_int in
      for _ = 1 to 2 do
        for s = slots - 1 downto 0 do
          if starts.(s) then gap.(s) <- 0
          else
            let next = gap.(if s = slots - 1 then 0 else s + 1) in
            if next < max_int then gap.(s) <- next + 1
        done
      done;
      gap
    end
  in
  let head = ref 0 and head_phase = ref 0 and rem = ref 0.0 and last = ref (-1) in
  let t = ref 0 and slot = ref 0 and phase = ref 0 in
  while !t < duration_slots do
    let now_ns = float_of_int !t *. slot_ns in
    if !phase < on then begin
      if !head > !last then begin
        head := !t;
        head_phase := !phase;
        rem := bytes
      end;
      last := !t;
      a.backlog <- a.backlog +. bytes;
      if a.backlog > a.backlog_peak then a.backlog_peak <- a.backlog
    end;
    if starts.(!slot) then begin
      let budget = ref payload_bytes in
      while !budget > 1e-12 && !head <= !last do
        let take = Float.min !rem !budget in
        rem := !rem -. take;
        budget := !budget -. take;
        a.delivered <- a.delivered +. take;
        a.backlog <- a.backlog -. take;
        let lat = now_ns +. transit_ns -. (float_of_int !head *. slot_ns) in
        a.latency_sum <- a.latency_sum +. (lat *. take);
        a.latency_bytes <- a.latency_bytes +. take;
        if lat > a.latency_max then a.latency_max <- lat;
        if !rem <= 1e-12 then begin
          (* pop: the next chunk is the next ON slot's *)
          if !head_phase + 1 < on then begin
            incr head;
            incr head_phase
          end
          else begin
            head := !head + period - !head_phase;
            head_phase := 0
          end;
          rem := bytes
        end
      done
    end;
    let next_phase = if !phase + 1 = period then 0 else !phase + 1 in
    if next_phase < on then begin
      incr t;
      phase := next_phase;
      slot := if !slot + 1 = slots then 0 else !slot + 1
    end
    else begin
      (* [t + 1] is OFF, in the current cycle: go to the next ON slot,
         or to an earlier reserved start while traffic is queued *)
      let next_on = !t + period - !phase in
      let target =
        if !head > !last then next_on
        else
          let g = gap.(if !slot + 1 = slots then 0 else !slot + 1) in
          if g >= next_on - (!t + 1) then next_on else !t + 1 + g
      in
      let d = target - !t in
      t := target;
      phase := if target = next_on then 0 else !phase + d;
      slot := (!slot + d) mod slots
    end
  done

let simulate_with ~core ~sources ~config ~routes ~duration_slots =
  if duration_slots <= 0 then invalid_arg "Simulator.simulate: non-positive duration";
  let sources = index_sources ~sources ~routes in
  let slots = config.Config.slots in
  let slot_ns = Config.slot_duration_ns config in
  let payload_bytes =
    float_of_int config.Config.slot_cycles *. float_of_int config.Config.link_width_bits /. 8.0
  in
  let act = Activation.build ~slots routes in
  let collisions = Activation.collisions act in
  let make_state idx r =
    let starts = Array.make slots false in
    if r.Route.service = Route.Gt then begin
      if r.Route.links = [] then Array.fill starts 0 slots true
      else List.iter (fun s -> starts.(((s mod slots) + slots) mod slots) <- true) r.Route.slot_starts
    end;
    let n_queues =
      match (r.Route.service, r.Route.links) with
      | Route.Gt, _ | _, [] -> 1
      | Route.Be, links -> List.length links
    in
    {
      idx;
      route = r;
      source = Option.value (Hashtbl.find_opt sources r.Route.flow_id) ~default:Fluid;
      starts;
      gt_transit_ns = slot_ns +. (float_of_int (Route.hops r) *. slot_ns);
      hop_queues = Array.init n_queues (fun _ -> Queue.create ());
      acc =
        {
          delivered = 0.0;
          backlog = 0.0;
          backlog_peak = 0.0;
          latency_sum = 0.0;
          latency_max = 0.0;
          latency_bytes = 0.0;
        };
    }
  in
  let states = List.mapi make_state routes in
  (* Pending replay events per connection, consumed in time order. *)
  let replays =
    List.filter_map
      (fun st -> match st.source with Replay trace -> Some (st, ref trace) | _ -> None)
      states
  in
  let gt_states = List.filter (fun st -> st.route.Route.service = Route.Gt) states in
  let be_states = List.filter (fun st -> st.route.Route.service = Route.Be) states in
  (* Per-link BE service state, in the activation index's first-traversal
     order — the one deterministic arbitration order of both cores. *)
  let be_entries =
    let per_link = Hashtbl.create 16 in
    List.iter
      (fun st ->
        List.iteri
          (fun hop link ->
            let prev = try Hashtbl.find per_link link with Not_found -> [] in
            Hashtbl.replace per_link link ((st, hop) :: prev))
          st.route.Route.links)
      be_states;
    Array.map
      (fun link ->
        {
          link;
          bconns = Array.of_list (List.rev (Hashtbl.find per_link link));
          rr = ref 0;
          free_mask = Activation.link_free_mask act ~link;
          armed = false;
        })
      (Activation.be_links act)
  in
  Metrics.incr m_runs;
  Metrics.incr ~by:duration_slots m_slots;
  Metrics.incr ~by:collisions m_collisions;

  (* --- the pinned reference core: tick every slot ----------------------- *)
  let run_reference () =
    let step t =
      let now_ns = float_of_int t *. slot_ns in
      let slot = t mod slots in
      (* Arrival of each connection's offered load (fluid or bursty). *)
      List.iter
        (fun st ->
          let arriving = arrival_bytes ~source:st.source ~bw:st.route.Route.bandwidth ~slot_ns ~t in
          if arriving > 0.0 then push_arrival st ~arrival_ns:now_ns ~ready_ns:now_ns ~bytes:arriving)
        states;
      (* Replay traces: inject every event falling inside this slot. *)
      List.iter
        (fun (st, pending) -> drain_replay st pending ~now_ns ~horizon:(now_ns +. slot_ns))
        replays;
      (* Guaranteed connections: a payload departs on each reserved start. *)
      List.iter
        (fun st ->
          if st.starts.(slot) then
            ignore
              (take_from_queue ~budget:payload_bytes ~now_ns ~transit_ns:st.gt_transit_ns
                 st.hop_queues.(0) ~deliver:true st))
        gt_states;
      (* Same-switch best-effort: the local port forwards every slot. *)
      List.iter
        (fun st ->
          if st.route.Route.links = [] then
            ignore
              (take_from_queue ~budget:payload_bytes ~now_ns ~transit_ns:slot_ns
                 st.hop_queues.(0) ~deliver:true st))
        be_states;
      (* Best-effort over links: each link whose current slot is not
         GT-owned serves one BE connection (round robin). *)
      Array.iter
        (fun entry ->
          if not (Activation.gt_owned act ~link:entry.link ~slot) then
            serve_be_link ~now_ns ~slot_ns ~payload_bytes entry
              ~on_idle:(fun () -> ())
              ~on_forward:(fun _ _ -> ()))
        be_entries
    in
    (* Traced runs report slot progress in a handful of chunk spans (one
       box each in the timeline) instead of one span per slot, which
       would swamp the trace on long horizons; untraced runs keep the
       plain loop. *)
    if Tracer.enabled () then begin
      let chunk = max 1 ((duration_slots + 7) / 8) in
      let t = ref 0 in
      while !t < duration_slots do
        let stop = min duration_slots (!t + chunk) in
        Tracer.with_span ~cat:"sim"
          ~args:[ ("from_slot", Tracer.Int !t); ("to_slot", Tracer.Int stop) ]
          "sim:slots"
          (fun () ->
            for u = !t to stop - 1 do
              step u
            done);
        t := stop
      done
    end
    else
      for t = 0 to duration_slots - 1 do
        step t
      done;
    Metrics.incr ~by:duration_slots m_events
  in

  (* --- the event core: jump straight to the next slot with work --------- *)
  let run_event () =
    let states_arr = Array.of_list states in
    let wheel = Event_wheel.create ~period:slots in
    (* Where a push into a connection's queues must register demand:
       a backlogged GT connection wants its reserved starts, a
       same-switch one wants every slot, a multi-hop BE one wants the
       GT-free slots of the link serving the pushed hop. *)
    let entry_of_link = Hashtbl.create 16 in
    Array.iteri (fun i e -> Hashtbl.replace entry_of_link e.link i) be_entries;
    let targets =
      Array.map
        (fun st ->
          match (st.route.Route.service, st.route.Route.links) with
          | Route.Gt, [] | Route.Be, [] -> `Local
          | Route.Gt, _ ->
            let mask = ref [] in
            for s = slots - 1 downto 0 do
              if st.starts.(s) then mask := s :: !mask
            done;
            `Gt_mask !mask
          | Route.Be, links ->
            `Be_hops (Array.of_list (List.map (Hashtbl.find entry_of_link) links)))
        states_arr
    in
    let armed = Array.make (Array.length states_arr) false in
    let arm_state i =
      if not armed.(i) then begin
        armed.(i) <- true;
        match targets.(i) with
        | `Gt_mask mask -> Event_wheel.arm wheel mask
        | `Local -> Event_wheel.arm_always wheel
        | `Be_hops _ -> assert false
      end
    in
    let disarm_state i =
      if armed.(i) then
        match targets.(i) with
        | `Gt_mask mask ->
          armed.(i) <- false;
          Event_wheel.disarm wheel mask
        | `Local ->
          armed.(i) <- false;
          Event_wheel.disarm_always wheel
        | `Be_hops _ -> assert false
    in
    let arm_entry e =
      if not e.armed then begin
        e.armed <- true;
        Event_wheel.arm wheel e.free_mask
      end
    in
    let arm_hop st hop =
      match targets.(st.idx) with
      | `Be_hops entries -> arm_entry be_entries.(entries.(hop))
      | `Gt_mask _ | `Local -> arm_state st.idx
    in
    (* GT connections with a fluid or on/off source run alone in the
       GT pass; the calendar never sees them. *)
    let shapes = Array.map (arrival_shape ~slot_ns) states_arr in
    let alone =
      Array.map (fun st -> st.route.Route.service = Route.Gt && shapes.(st.idx) <> None) states_arr
    in
    let gt_starts =
      Array.init slots (fun slot ->
          Array.of_list
            (List.filter
               (fun pos -> not alone.(pos))
               (Array.to_list (Activation.gt_starts_at act ~slot))))
    in
    let arrivals =
      Array.of_list
        (List.filter_map
           (fun st ->
             match shapes.(st.idx) with
             | Some (bytes, p, on) when bytes > 0.0 && not alone.(st.idx) ->
               Some (st, if on >= p then `Every_slot bytes else `On_off (p, on, bytes, ref false))
             | _ -> None)
           states)
    in
    let be_local =
      Array.of_list (List.filter (fun st -> st.route.Route.links = []) be_states)
    in
    (* The first slot a trace event enters the NoC: the smallest t with
       [at_ns < horizon t], probed with the reference's own horizon
       expression so float rounding cannot disagree. *)
    let inject_slot at_ns =
      let est = at_ns /. slot_ns in
      if est > float_of_int duration_slots +. 1.0 then duration_slots
      else begin
        let s = ref (max 0 (int_of_float est - 2)) in
        while not (at_ns < (float_of_int !s *. slot_ns) +. slot_ns) do
          incr s
        done;
        !s
      end
    in
    (* Seed the calendar: fluid sources arrive every slot, on/off ones
       at slot 0 (phase 0 is always ON since on_slots >= 1), traces at
       their first event's slot. *)
    Array.iter
      (fun (_, kind) ->
        match kind with
        | `Every_slot _ -> Event_wheel.arm_always wheel
        | `On_off _ -> Event_wheel.schedule wheel 0)
      arrivals;
    List.iter
      (fun (_, pending) ->
        match !pending with
        | e :: _ -> Event_wheel.schedule wheel (inject_slot e.Trace.at_ns)
        | [] -> ())
      replays;
    let step t =
      let now_ns = float_of_int t *. slot_ns in
      let slot = t mod slots in
      Array.iter
        (fun (st, kind) ->
          match kind with
          | `Every_slot bytes ->
            push_arrival st ~arrival_ns:now_ns ~ready_ns:now_ns ~bytes;
            arm_hop st 0
          | `On_off (p, on, bytes, in_burst) ->
            if t mod p < on then begin
              push_arrival st ~arrival_ns:now_ns ~ready_ns:now_ns ~bytes;
              arm_hop st 0;
              (* A burst makes every slot active until its OFF edge, so
                 ride the always tier for its length (exact, not an
                 over-approximation) instead of chaining a one-shot per
                 ON slot — that churned the heap once per source per
                 slot. *)
              if not !in_burst then begin
                in_burst := true;
                Event_wheel.arm_always wheel
              end;
              if t mod p = on - 1 then begin
                in_burst := false;
                Event_wheel.disarm_always wheel;
                let nxt = t - (t mod p) + p in
                if nxt < duration_slots then Event_wheel.schedule wheel nxt
              end
            end)
        arrivals;
      List.iter
        (fun (st, pending) ->
          let horizon = now_ns +. slot_ns in
          match !pending with
          | e :: _ when e.Trace.at_ns < horizon ->
            drain_replay st pending ~now_ns ~horizon;
            arm_hop st 0;
            (match !pending with
            | e :: _ -> Event_wheel.schedule wheel (inject_slot e.Trace.at_ns)
            | [] -> ())
          | _ -> ())
        replays;
      Array.iter
        (fun pos ->
          let st = states_arr.(pos) in
          ignore
            (take_from_queue ~budget:payload_bytes ~now_ns ~transit_ns:st.gt_transit_ns
               st.hop_queues.(0) ~deliver:true st);
          if Queue.is_empty st.hop_queues.(0) then disarm_state pos)
        gt_starts.(slot);
      Array.iter
        (fun st ->
          ignore
            (take_from_queue ~budget:payload_bytes ~now_ns ~transit_ns:slot_ns st.hop_queues.(0)
               ~deliver:true st);
          if Queue.is_empty st.hop_queues.(0) then disarm_state st.idx)
        be_local;
      Array.iter
        (fun ei ->
          let entry = be_entries.(ei) in
          serve_be_link ~now_ns ~slot_ns ~payload_bytes entry
            ~on_idle:(fun () ->
              if entry.armed then begin
                entry.armed <- false;
                Event_wheel.disarm wheel entry.free_mask
              end)
            ~on_forward:(fun st hop -> arm_hop st (hop + 1)))
        (Activation.be_free_at act ~slot)
    in
    let executed = ref 0 in
    let rec loop from =
      if from < duration_slots then
        match Event_wheel.next_active wheel ~from with
        | None -> ()
        | Some u when u >= duration_slots -> ()
        | Some u ->
          step u;
          incr executed;
          Event_wheel.drop_until wheel u;
          loop (u + 1)
    in
    let gt_pass () =
      Array.iter
        (fun st ->
          match shapes.(st.idx) with
          | Some (bytes, period, on) when bytes > 0.0 && alone.(st.idx) ->
            run_alone ~slots ~slot_ns ~payload_bytes ~duration_slots st ~bytes ~period ~on
          | _ -> ())
        states_arr
    in
    let span name f =
      if Tracer.enabled () then
        Tracer.with_span ~cat:"sim" ~args:[ ("duration_slots", Tracer.Int duration_slots) ] name f
      else f ()
    in
    span "sim:gt" gt_pass;
    span "sim:event-loop" (fun () -> loop 0);
    Metrics.incr ~by:!executed m_events;
    Metrics.incr ~by:(duration_slots - !executed) m_skipped
  in
  (match core with `Reference -> run_reference () | `Event -> run_event ());
  let horizon_ns = float_of_int duration_slots *. slot_ns in
  let finish st =
    let a = st.acc in
    {
      flow_id = st.route.Route.flow_id;
      src_core = st.route.Route.src_core;
      dst_core = st.route.Route.dst_core;
      service = st.route.Route.service;
      offered_mbps = st.route.Route.bandwidth;
      delivered_mbps = a.delivered /. horizon_ns *. 1000.0;
      mean_latency_ns =
        (if a.latency_bytes > 0.0 then a.latency_sum /. a.latency_bytes else 0.0);
      max_latency_ns = a.latency_max;
      bound_ns = Route.worst_case_latency_ns ~config st.route;
      final_backlog_bytes = a.backlog;
      max_backlog_bytes = a.backlog_peak;
    }
  in
  { duration_slots; slot_ns; collisions; conns = List.map finish states }

let within_contract ?(tolerance = 0.02) r =
  r.collisions = 0
  && List.for_all
       (fun c ->
         c.service = Route.Be
         || (c.delivered_mbps >= c.offered_mbps *. (1.0 -. tolerance)
            (* one slot of boundary slack on the analytic bound *)
            && c.max_latency_ns <= c.bound_ns +. r.slot_ns +. 1e-6))
       r.conns

let pp_result ppf r =
  Format.fprintf ppf "@[<v>simulated %d slots, %d collisions@ " r.duration_slots r.collisions;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "conn %d (%d->%d%s): offered %.1f delivered %.1f MB/s, lat mean %.1f max %.1f%s@."
        c.flow_id c.src_core c.dst_core
        (match c.service with Route.Gt -> "" | Route.Be -> ", BE")
        c.offered_mbps c.delivered_mbps c.mean_latency_ns c.max_latency_ns
        (match c.service with
        | Route.Gt -> Printf.sprintf " (bound %.1f) ns" c.bound_ns
        | Route.Be -> " ns (no bound)"))
    r.conns;
  Format.fprintf ppf "@]"

let simulate_sources ~sources ~config ~routes ~duration_slots =
  simulate_with ~core:`Event ~sources ~config ~routes ~duration_slots

let simulate ~config ~routes ~duration_slots =
  simulate_with ~core:`Event ~sources:[] ~config ~routes ~duration_slots
