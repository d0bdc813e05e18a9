(* The engine-independent certificate checker.

   Everything here is re-derived from the design record itself with
   deliberately naive code: claims are rebuilt from the routes' start
   slots by the TDMA discipline's definition (start t claims slot t+i
   on the i-th link), paths are walked link by link with
   Mesh.link_endpoints, and the worst-case latency bound is found by
   brute force over every arrival offset of the revolution.  Nothing
   is shared with Tdma, Path_select or Verify on purpose: an auditor
   that reuses the auditee's code inherits its bugs. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Slot_table = Noc_arch.Slot_table
module Mapping = Noc_core.Mapping
module Resources = Noc_core.Resources
module Codec = Noc_core.Mapping_codec
module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case
module Json = Noc_export.Json

type flow_bound = {
  use_case : int;
  flow_id : int;
  src_core : int;
  dst_core : int;
  hops : int;
  granted_slots : int;
  bound_ns : float;
  required_ns : float;
  slack_ns : float;
}

type finding = {
  check : string;
  use_case : int;
  link : int;
  detail : string;
}

type t = {
  design : string;
  digest : string option;
  switches : int;
  use_cases : int;
  routes : int;
  checks : int;
  findings : finding list;
  bounds : flow_bound list;
  ni_buffer_words : (int * int) list;
  signature : string;
}

let clean t = t.findings = []

let exit_code t = if clean t then 0 else 2

(* --- static worst-case latency: slot-table phase analysis ------------- *)

(* A payload arriving at the head of slot [t] launches at the next
   reserved starting slot (possibly [t] itself), spends one slot
   crossing the NI/first link and one more per further hop.  The bound
   is the worst such launch-to-delivery distance over every arrival
   offset of the revolution — pure table inspection, no simulation. *)
let static_bound_ns ~config ~slot_starts ~hops =
  let slot_ns = Config.slot_duration_ns config in
  if hops = 0 then slot_ns
  else
    match slot_starts with
    | [] -> infinity
    | starts ->
      let slots = config.Config.slots in
      let reserved = Array.make slots false in
      List.iter (fun s -> reserved.(((s mod slots) + slots) mod slots) <- true) starts;
      let worst = ref 0 in
      for t = 0 to slots - 1 do
        let w = ref 0 in
        while not reserved.((t + !w) mod slots) do
          incr w
        done;
        if !w > !worst then worst := !w
      done;
      float_of_int (!worst + 1 + hops) *. slot_ns

(* Worst service gap in slots (arrival-to-launch plus the launch slot
   itself): the window a source-side NI buffer must absorb. *)
let worst_service_gap ~slots ~slot_starts =
  match slot_starts with
  | [] -> slots
  | starts ->
    let reserved = Array.make slots false in
    List.iter (fun s -> reserved.(((s mod slots) + slots) mod slots) <- true) starts;
    let worst = ref 0 in
    for t = 0 to slots - 1 do
      let w = ref 0 in
      while not reserved.((t + !w) mod slots) do
        incr w
      done;
      if !w > !worst then worst := !w
    done;
    !worst + 1

(* --- the checker ------------------------------------------------------- *)

let certify ?(name = "design") (m : Mapping.t) use_cases =
  let config = m.Mapping.config in
  let mesh = m.Mapping.mesh in
  let slots = config.Config.slots in
  let slot_bw = Config.slot_bandwidth config in
  let slot_ns = Config.slot_duration_ns config in
  let n_switch = Mesh.switch_count mesh in
  let n_links = Mesh.link_count mesh in
  let n_cores = Array.length m.Mapping.placement in
  let checks = ref 0 in
  let findings = ref [] in
  let fail ?(use_case = -1) ?(link = -1) check detail =
    findings := { check; use_case; link; detail } :: !findings
  in
  let run ?use_case ?link id cond detail =
    incr checks;
    if not cond then fail ?use_case ?link id (detail ())
  in
  (* Configuration sanity. *)
  (incr checks;
   match Config.validate config with
   | Ok () -> ()
   | Error msg -> fail "config" msg);
  (* Placement: in-range switches, NI capacity per switch. *)
  Array.iteri
    (fun core sw ->
      run "placement-range"
        (sw >= 0 && sw < n_switch)
        (fun () -> Printf.sprintf "core %d placed on switch %d (mesh has %d)" core sw n_switch))
    m.Mapping.placement;
  (let hosted = Array.make n_switch 0 in
   Array.iter (fun sw -> if sw >= 0 && sw < n_switch then hosted.(sw) <- hosted.(sw) + 1) m.Mapping.placement;
   Array.iteri
     (fun sw n ->
       if n > 0 then
         run "ni-capacity"
           (n <= config.Config.nis_per_switch)
           (fun () ->
             Printf.sprintf "switch %d hosts %d cores but has %d NIs" sw n
               config.Config.nis_per_switch))
     hosted);
  (* Shape: one resource state per use-case, ids by position, groups
     partition the ids. *)
  let n_ucs = List.length use_cases in
  let shape_ok = ref true in
  run "shape"
    (Array.length m.Mapping.states = n_ucs)
    (fun () ->
      shape_ok := false;
      Printf.sprintf "%d resource states for %d use-cases" (Array.length m.Mapping.states) n_ucs);
  List.iteri
    (fun i u ->
      run "shape" (u.Use_case.id = i) (fun () ->
          shape_ok := false;
          Printf.sprintf "use-case at position %d has id %d" i u.Use_case.id))
    use_cases;
  (let seen = Array.make n_ucs false in
   List.iter
     (List.iter (fun uc ->
          incr checks;
          if uc < 0 || uc >= n_ucs then begin
            shape_ok := false;
            fail "shape" (Printf.sprintf "group member %d is not a use-case id" uc)
          end
          else if seen.(uc) then begin
            shape_ok := false;
            fail "shape" (Printf.sprintf "use-case %d appears in two groups" uc)
          end
          else seen.(uc) <- true))
     m.Mapping.groups;
   Array.iteri
     (fun uc present ->
       if not present then begin
         shape_ok := false;
         fail "shape" (Printf.sprintf "use-case %d belongs to no group" uc)
       end)
     seen);
  if not !shape_ok then begin
    (* Per-use-case bookkeeping below indexes states and groups by id;
       with a broken shape those reads are meaningless (or unsafe), so
       the certificate stops at the structural refutation. *)
    let findings = List.rev !findings in
    let payload_signature = Digest.to_hex (Digest.string (name ^ string_of_int !checks)) in
    {
      design = name;
      digest = Codec.digest m;
      switches = n_switch;
      use_cases = n_ucs;
      routes = List.length m.Mapping.routes;
      checks = !checks;
      findings;
      bounds = [];
      ni_buffer_words = [];
      signature = payload_signature;
    }
  end
  else begin
    (* Routes indexed by use-case. *)
    let routes_of = Array.make n_ucs [] in
    List.iter
      (fun r ->
        let uc = r.Route.use_case in
        incr checks;
        if uc < 0 || uc >= n_ucs then
          fail "route-use-case" (Printf.sprintf "route for flow %d names unknown use-case %d" r.Route.flow_id uc)
        else routes_of.(uc) <- r :: routes_of.(uc))
      m.Mapping.routes;
    Array.iteri (fun uc rs -> routes_of.(uc) <- List.rev rs) routes_of;
    (* Per-route structural checks: endpoints, chain, loop-freedom,
       slot ranges, service discipline. *)
    let route_structurally_ok = Hashtbl.create 64 in
    List.iter
      (fun r ->
        let uc = r.Route.use_case in
        if uc >= 0 && uc < n_ucs then begin
          let here ?link id cond detail = run ~use_case:uc ?link id cond detail in
          let ok = ref true in
          let need ?link id cond detail =
            here ?link id cond detail;
            if not cond then ok := false
          in
          need "core-range"
            (r.Route.src_core >= 0 && r.Route.src_core < n_cores && r.Route.dst_core >= 0
           && r.Route.dst_core < n_cores)
            (fun () ->
              Printf.sprintf "flow %d endpoints (%d, %d) outside the %d mapped cores"
                r.Route.flow_id r.Route.src_core r.Route.dst_core n_cores);
          if !ok then
            need "route-endpoints"
              (m.Mapping.placement.(r.Route.src_core) = r.Route.src_switch
              && m.Mapping.placement.(r.Route.dst_core) = r.Route.dst_switch)
              (fun () ->
                Printf.sprintf "flow %d route endpoints (sw %d -> sw %d) disagree with the placement"
                  r.Route.flow_id r.Route.src_switch r.Route.dst_switch);
          (* Walk the chain with nothing but link endpoints. *)
          let links_ok =
            List.for_all (fun l -> l >= 0 && l < n_links) r.Route.links
          in
          here "link-range" links_ok (fun () ->
              Printf.sprintf "flow %d path names a link outside 0..%d" r.Route.flow_id (n_links - 1));
          if links_ok then begin
            let visited = Hashtbl.create 8 in
            Hashtbl.replace visited r.Route.src_switch ();
            let rec walk at = function
              | [] -> if at <> r.Route.dst_switch then Some "path stops short of the destination switch" else None
              | l :: rest ->
                let a, b = Mesh.link_endpoints mesh l in
                if a <> at then Some (Printf.sprintf "link %d departs switch %d, not %d" l a at)
                else if Hashtbl.mem visited b then
                  Some (Printf.sprintf "path revisits switch %d (a routing loop)" b)
                else begin
                  Hashtbl.replace visited b ();
                  walk b rest
                end
            in
            let verdict = walk r.Route.src_switch r.Route.links in
            here "route-path" (verdict = None) (fun () ->
                Printf.sprintf "flow %d: %s" r.Route.flow_id (Option.value verdict ~default:""));
            if verdict <> None then ok := false
          end
          else ok := false;
          need "slot-range"
            (List.for_all (fun s -> s >= 0 && s < slots) r.Route.slot_starts)
            (fun () ->
              Printf.sprintf "flow %d reserves a starting slot outside 0..%d" r.Route.flow_id
                (slots - 1));
          (match r.Route.service with
          | Route.Be ->
            here "be-reservation" (r.Route.slot_starts = []) (fun () ->
                Printf.sprintf "best-effort flow %d holds slot reservations" r.Route.flow_id)
          | Route.Gt ->
            if r.Route.links <> [] then
              here "no-reservation" (r.Route.slot_starts <> []) (fun () ->
                  Printf.sprintf "guaranteed flow %d crosses %d links with no reserved slots"
                    r.Route.flow_id (List.length r.Route.links)));
          Hashtbl.replace route_structurally_ok (uc, r.Route.flow_id) !ok
        end)
      m.Mapping.routes;
    (* Per-flow guarantees against the spec's demand, and the static
       latency bounds. *)
    let bounds = ref [] in
    List.iter
      (fun u ->
        let uc = u.Use_case.id in
        let own = routes_of.(uc) in
        List.iter
          (fun f ->
            let service = if Flow.is_guaranteed f then Route.Gt else Route.Be in
            let matching =
              List.filter
                (fun r ->
                  r.Route.src_core = f.Flow.src && r.Route.dst_core = f.Flow.dst
                  && r.Route.service = service)
                own
            in
            run ~use_case:uc "route-exists"
              (List.length matching = 1)
              (fun () ->
                Printf.sprintf "flow %d -> %d: %d configured connections (want exactly 1)"
                  f.Flow.src f.Flow.dst (List.length matching));
            match matching with
            | [ r ] ->
              run ~use_case:uc "demand-record"
                (r.Route.bandwidth = f.Flow.bandwidth)
                (fun () ->
                  Printf.sprintf
                    "flow %d -> %d: route records %.17g MB/s but the spec demands %.17g MB/s"
                    f.Flow.src f.Flow.dst r.Route.bandwidth f.Flow.bandwidth);
              if service = Route.Gt then begin
                let hops = List.length r.Route.links in
                let granted = List.length r.Route.slot_starts in
                if hops > 0 then
                  run ~use_case:uc "bandwidth"
                    (float_of_int granted *. slot_bw +. 1e-9 >= f.Flow.bandwidth)
                    (fun () ->
                      Printf.sprintf
                        "flow %d -> %d: %d slots grant %.1f MB/s < demanded %.1f MB/s" f.Flow.src
                        f.Flow.dst granted
                        (float_of_int granted *. slot_bw)
                        f.Flow.bandwidth);
                let bound_ns =
                  static_bound_ns ~config ~slot_starts:r.Route.slot_starts ~hops
                in
                run ~use_case:uc "latency"
                  (bound_ns <= f.Flow.latency_ns +. 1e-9)
                  (fun () ->
                    Printf.sprintf "flow %d -> %d: static bound %.1f ns exceeds constraint %.1f ns"
                      f.Flow.src f.Flow.dst bound_ns f.Flow.latency_ns);
                bounds :=
                  {
                    use_case = uc;
                    flow_id = r.Route.flow_id;
                    src_core = f.Flow.src;
                    dst_core = f.Flow.dst;
                    hops;
                    granted_slots = granted;
                    bound_ns;
                    required_ns = f.Flow.latency_ns;
                    slack_ns = f.Flow.latency_ns -. bound_ns;
                  }
                  :: !bounds
              end
            | _ -> ())
          u.Use_case.flows)
      use_cases;
    (* Slot claims: rebuild every (link, slot) each route occupies from
       its starting slots and check exclusivity within the use-case,
       exact ownership in the use-case's own tables, and that no table
       holds reservations its switching group cannot account for. *)
    let group_of = Array.make n_ucs [] in
    List.iter (fun g -> List.iter (fun uc -> group_of.(uc) <- g) g) m.Mapping.groups;
    let claims_of = Array.make n_ucs (Hashtbl.create 0) in
    Array.iteri (fun uc _ -> claims_of.(uc) <- Hashtbl.create 64) claims_of;
    List.iter
      (fun (r : Route.t) ->
        let uc = r.Route.use_case in
        if
          uc >= 0 && uc < n_ucs && r.Route.service = Route.Gt
          && Option.value (Hashtbl.find_opt route_structurally_ok (uc, r.Route.flow_id))
               ~default:false
        then
          let claims = claims_of.(uc) in
          List.iter
            (fun start ->
              List.iteri
                (fun hop link ->
                  let slot = (start + hop) mod slots in
                  incr checks;
                  match Hashtbl.find_opt claims (link, slot) with
                  | Some other when other <> r.Route.flow_id ->
                    fail ~use_case:uc ~link "slot-exclusivity"
                      (Printf.sprintf "link %d slot %d claimed by both flow %d and flow %d" link
                         slot other r.Route.flow_id)
                  | Some _ -> ()
                  | None -> Hashtbl.replace claims (link, slot) r.Route.flow_id)
                r.Route.links)
            r.Route.slot_starts)
      m.Mapping.routes;
    (* Claims versus the recorded slot tables, both directions. *)
    List.iter
      (fun u ->
        let uc = u.Use_case.id in
        let state = m.Mapping.states.(uc) in
        (* Every claim must be owned by exactly the claiming flow. *)
        Hashtbl.iter
          (fun (link, slot) flow_id ->
            incr checks;
            match Slot_table.owner (Resources.table state link) slot with
            | Some o when o = flow_id -> ()
            | Some o ->
              fail ~use_case:uc ~link "slot-owner"
                (Printf.sprintf "link %d slot %d: table owner is %d but flow %d claims it" link
                   slot o flow_id)
            | None ->
              fail ~use_case:uc ~link "slot-owner"
                (Printf.sprintf "link %d slot %d: claimed by flow %d but free in the table" link
                   slot flow_id))
          claims_of.(uc);
        (* Every recorded reservation must be accounted for: claimed by
           this use-case, or mirrored from a switching-group partner
           (shared configuration) under the partner's connection id. *)
        for link = 0 to n_links - 1 do
          let table = Resources.table state link in
          for slot = 0 to slots - 1 do
            match Slot_table.owner table slot with
            | None -> ()
            | Some o ->
              if not (Hashtbl.mem claims_of.(uc) (link, slot)) then begin
                incr checks;
                let accounted =
                  List.exists
                    (fun partner ->
                      partner <> uc
                      &&
                      match Hashtbl.find_opt claims_of.(partner) (link, slot) with
                      | Some pf -> pf = o
                      | None -> false)
                    group_of.(uc)
                in
                if not accounted then
                  fail ~use_case:uc ~link "orphan-slot"
                    (Printf.sprintf
                       "link %d slot %d reserved for connection %d, which no route of the \
                        switching group explains"
                       link slot o)
              end
          done
        done)
      use_cases;
    (* Shared configuration inside each smooth-switching group: the
       occupancy pattern (which slots are taken) must be identical
       across members — rebuilt from the tables, not from Verify. *)
    List.iter
      (fun group ->
        match group with
        | [] | [ _ ] -> ()
        | leader :: rest ->
          let occupied uc link slot =
            Slot_table.owner (Resources.table m.Mapping.states.(uc) link) slot <> None
          in
          List.iter
            (fun member ->
              for link = 0 to n_links - 1 do
                incr checks;
                let agree = ref true in
                for slot = 0 to slots - 1 do
                  if occupied leader link slot <> occupied member link slot then agree := false
                done;
                if not !agree then
                  fail ~use_case:member ~link "group-config"
                    (Printf.sprintf
                       "link %d slot occupancy differs from group leader (use-case %d)" link
                       leader)
              done)
            rest)
      m.Mapping.groups;
    (* NI link budgets: when the architecture constrains them, each
       core's aggregate flow bandwidth (as source plus as destination)
       must fit one NI link, per use-case. *)
    if config.Config.constrain_ni_links then begin
      let capacity = Config.link_capacity config in
      List.iter
        (fun u ->
          let uc = u.Use_case.id in
          let demand = Array.make n_cores 0.0 in
          List.iter
            (fun f ->
              if f.Flow.src >= 0 && f.Flow.src < n_cores then
                demand.(f.Flow.src) <- demand.(f.Flow.src) +. f.Flow.bandwidth;
              if f.Flow.dst >= 0 && f.Flow.dst < n_cores then
                demand.(f.Flow.dst) <- demand.(f.Flow.dst) +. f.Flow.bandwidth)
            u.Use_case.flows;
          Array.iteri
            (fun core d ->
              if d > 0.0 then
                run ~use_case:uc "ni-budget"
                  (d <= capacity +. 1e-9)
                  (fun () ->
                    Printf.sprintf "core %d needs %.1f MB/s of NI bandwidth, link carries %.1f"
                      core d capacity))
            demand)
        use_cases
    end;
    (* NI buffer provisioning implied by the reservations: the source
       buffer absorbs the worst service gap at the contracted rate plus
       one in-flight payload; each incoming connection needs one
       reassembly payload.  A core's NI must cover its worst use-case. *)
    let payload_bytes =
      float_of_int config.Config.slot_cycles *. float_of_int config.Config.link_width_bits /. 8.0
    in
    let word_bytes = float_of_int config.Config.link_width_bits /. 8.0 in
    let buffer_words = Array.make n_cores 0 in
    List.iter
      (fun u ->
        let uc = u.Use_case.id in
        let per_core = Array.make n_cores 0.0 in
        List.iter
          (fun (r : Route.t) ->
            if r.Route.src_core >= 0 && r.Route.src_core < n_cores
               && r.Route.dst_core >= 0 && r.Route.dst_core < n_cores
            then begin
              let source_bytes =
                match (r.Route.service, r.Route.links) with
                | Route.Gt, _ :: _ when r.Route.slot_starts <> [] ->
                  let gap = worst_service_gap ~slots ~slot_starts:r.Route.slot_starts in
                  (r.Route.bandwidth /. 1000.0 *. (float_of_int gap *. slot_ns)) +. payload_bytes
                | _ -> payload_bytes
              in
              per_core.(r.Route.src_core) <- per_core.(r.Route.src_core) +. source_bytes;
              per_core.(r.Route.dst_core) <- per_core.(r.Route.dst_core) +. payload_bytes
            end)
          routes_of.(uc);
        Array.iteri
          (fun core bytes ->
            let words = int_of_float (Float.ceil (bytes /. word_bytes)) in
            if words > buffer_words.(core) then buffer_words.(core) <- words)
          per_core)
      use_cases;
    let ni_buffer_words =
      Array.to_list (Array.mapi (fun core w -> (core, w)) buffer_words)
      |> List.filter (fun (_, w) -> w > 0)
    in
    let bounds =
      List.sort
        (fun (a : flow_bound) (b : flow_bound) ->
          compare (a.use_case, a.flow_id) (b.use_case, b.flow_id))
        !bounds
    in
    let record =
      {
        design = name;
        digest = Codec.digest m;
        switches = n_switch;
        use_cases = n_ucs;
        routes = List.length m.Mapping.routes;
        checks = !checks;
        findings = List.rev !findings;
        bounds;
        ni_buffer_words;
        signature = "";
      }
    in
    record
  end

(* --- rendering and the signature --------------------------------------- *)

let fl x = if Float.is_finite x then Json.Float x else Json.String "inf"

let json_of_finding f =
  Json.Obj
    [
      ("check", Json.String f.check);
      ("use_case", Json.Int f.use_case);
      ("link", Json.Int f.link);
      ("detail", Json.String f.detail);
    ]

let json_of_bound (b : flow_bound) =
  Json.Obj
    [
      ("use_case", Json.Int b.use_case);
      ("flow_id", Json.Int b.flow_id);
      ("src_core", Json.Int b.src_core);
      ("dst_core", Json.Int b.dst_core);
      ("hops", Json.Int b.hops);
      ("granted_slots", Json.Int b.granted_slots);
      ("bound_ns", fl b.bound_ns);
      ("required_ns", fl b.required_ns);
      ("slack_ns", fl b.slack_ns);
    ]

let payload_json t =
  Json.Obj
    [
      ("design", Json.String t.design);
      ("digest", match t.digest with Some d -> Json.String d | None -> Json.Null);
      ("switches", Json.Int t.switches);
      ("use_cases", Json.Int t.use_cases);
      ("routes", Json.Int t.routes);
      ("checks", Json.Int t.checks);
      ("clean", Json.Bool (clean t));
      ("findings", Json.List (List.map json_of_finding t.findings));
      ("bounds", Json.List (List.map json_of_bound t.bounds));
      ( "ni_buffer_words",
        Json.List
          (List.map
             (fun (core, words) ->
               Json.Obj [ ("core", Json.Int core); ("words", Json.Int words) ])
             t.ni_buffer_words) );
    ]

let sign t = Digest.to_hex (Digest.string (Json.to_string (payload_json t)))

let signature_ok t = String.equal t.signature (sign t)

let certify ?name m use_cases =
  let signed () =
    let record = certify ?name m use_cases in
    { record with signature = sign record }
  in
  if Noc_obs.Tracer.enabled () then
    Noc_obs.Tracer.with_span ~cat:"certify"
      ~args:[ ("routes", Noc_obs.Tracer.Int (List.length m.Mapping.routes)) ]
      "certify" signed
  else signed ()

let to_json t =
  match payload_json t with
  | Json.Obj fields -> Json.Obj (fields @ [ ("signature", Json.String t.signature) ])
  | other -> other

let to_diagnostics t =
  let summary =
    Diagnostic.vf ~pass:"certify" Diagnostic.Info
      "certificate %s: %d checks over %d routes, %d flow bounds, %s" t.design t.checks t.routes
      (List.length t.bounds)
      (if clean t then "clean" else Printf.sprintf "%d findings" (List.length t.findings))
  in
  summary
  :: List.map
       (fun f ->
         Diagnostic.vf
           ~pass:("certify-" ^ f.check)
           Diagnostic.Error "%s%s"
           (if f.use_case >= 0 then Printf.sprintf "use-case %d: " f.use_case else "")
           f.detail)
       t.findings

let render_text t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "certificate %s: %d switches, %d use-cases, %d routes, %d checks\n" t.design
       t.switches t.use_cases t.routes t.checks);
  (match t.digest with
  | Some d -> Buffer.add_string buf (Printf.sprintf "design digest: %s\n" d)
  | None -> Buffer.add_string buf "design digest: (not encodable)\n");
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "FAIL[%s]%s%s: %s\n" f.check
           (if f.use_case >= 0 then Printf.sprintf " uc %d" f.use_case else "")
           (if f.link >= 0 then Printf.sprintf " link %d" f.link else "")
           f.detail))
    t.findings;
  (match t.bounds with
  | [] -> ()
  | bounds ->
    let bounded = List.filter (fun b -> Float.is_finite b.slack_ns) bounds in
    Buffer.add_string buf
      (Printf.sprintf "flow bounds: %d guaranteed flows (%d with finite latency constraints)\n"
         (List.length bounds) (List.length bounded));
    match bounded with
    | [] -> ()
    | b0 :: _ ->
      let tightest =
        List.fold_left (fun acc b -> if b.slack_ns < acc.slack_ns then b else acc) b0 bounded
      in
      Buffer.add_string buf
        (Printf.sprintf
           "tightest: uc %d flow %d -> %d, bound %.1f ns against %.1f ns (slack %.1f ns)\n"
           tightest.use_case tightest.src_core tightest.dst_core tightest.bound_ns
           tightest.required_ns tightest.slack_ns));
  Buffer.add_string buf
    (Printf.sprintf "verdict: %s\nsignature: %s\n"
       (if clean t then "CLEAN" else Printf.sprintf "REJECTED (%d findings)" (List.length t.findings))
       t.signature);
  Buffer.contents buf
