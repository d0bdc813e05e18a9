module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let m_batches = Metrics.counter "pool.batches"
let m_tasks = Metrics.counter "pool.tasks"
let m_stolen = Metrics.counter "pool.stolen_tasks"
let g_workers = Metrics.gauge "pool.workers"
let g_queue_depth = Metrics.gauge "pool.queue_depth"
let g_busy = Metrics.gauge "pool.busy_workers"
let g_utilization = Metrics.gauge "pool.utilization"

let default_jobs_ref = ref (max 1 (Domain.recommended_domain_count ()))

let set_default_jobs n = default_jobs_ref := max 1 n

let default_jobs () = !default_jobs_ref

(* Workers mark their domain so that a task submitting a nested batch
   (a benchmark figure's task running a [Min_freq] scan, say) degrades
   to an inline sequential run instead of deadlocking on the queue. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let effective_jobs ?jobs () =
  if Domain.DLS.get in_worker then 1
  else max 1 (match jobs with Some j -> j | None -> default_jobs ())

(* One batch = one array of tasks claimed chunk-by-chunk through an
   atomic cursor.  [run_task i] executes task [i] and records its
   result or exception; the batch is done when [completed] reaches
   [n].  [joined] caps how many pool workers pile onto the batch so a
   small [~jobs] on a big pool behaves as asked. *)
type batch = {
  id : int;
  run_task : int -> unit;
  n : int;
  chunk : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  helpers_wanted : int;
  joined : int Atomic.t;
  mutable finished : bool;
}

let mutex = Mutex.create ()

let work_cond = Condition.create () (* workers: a batch was published *)

let done_cond = Condition.create () (* submitters: a batch finished *)

let current : batch option ref = ref None

let next_batch_id = ref 0

let shutting_down = ref false

let worker_handles : unit Domain.t list ref = ref []

(* Domains currently draining a chunk of some batch, mirrored into the
   [pool.busy_workers] gauge (a gauge cell has no atomic add, so the
   count lives here). *)
let busy_count = Atomic.make 0

let drain ~helper b =
  (* Anyone draining — pool worker or submitter — must run nested
     batches inline: a task that re-entered [run_batch] here would wait
     on a batch that cannot finish while its own chunk is unfinished.
     Save/restore so the submitting domain regains full parallelism
     between batches. *)
  let was_in_worker = Domain.DLS.get in_worker in
  Domain.DLS.set in_worker true;
  Metrics.set g_busy (float_of_int (Atomic.fetch_and_add busy_count 1 + 1));
  let continue = ref true in
  while !continue do
    let start = Atomic.fetch_and_add b.next b.chunk in
    if start >= b.n then continue := false
    else begin
      let stop = min b.n (start + b.chunk) in
      (* Tasks not yet claimed by anyone: the live queue depth. *)
      Metrics.set g_queue_depth (float_of_int (max 0 (b.n - stop)));
      (* A chunk claimed by a pool worker (rather than the submitting
         domain) is a steal: work that would otherwise have run on the
         submitter.  Per-worker chunk spans give the trace one row per
         domain in Perfetto. *)
      if helper then Metrics.incr ~by:(stop - start) m_stolen;
      let run_chunk () =
        for i = start to stop - 1 do
          b.run_task i
        done
      in
      if Tracer.enabled () then
        Tracer.with_span ~cat:"pool"
          ~args:
            [
              ("batch", Tracer.Int b.id);
              ("from", Tracer.Int start);
              ("to", Tracer.Int stop);
              ("stolen", Tracer.Bool helper);
            ]
          "pool:chunk" run_chunk
      else run_chunk ();
      let finished_now = Atomic.fetch_and_add b.completed (stop - start) + (stop - start) in
      if finished_now = b.n then begin
        Mutex.lock mutex;
        b.finished <- true;
        Condition.broadcast done_cond;
        Mutex.unlock mutex
      end
    end
  done;
  Metrics.set g_busy (float_of_int (max 0 (Atomic.fetch_and_add busy_count (-1) - 1)));
  Domain.DLS.set in_worker was_in_worker

let worker_body () =
  Domain.DLS.set in_worker true;
  let last_seen = ref (-1) in
  Mutex.lock mutex;
  while not !shutting_down do
    match !current with
    | Some b when b.id <> !last_seen && not b.finished ->
      last_seen := b.id;
      if Atomic.fetch_and_add b.joined 1 < b.helpers_wanted then begin
        Mutex.unlock mutex;
        drain ~helper:true b;
        Mutex.lock mutex
      end
    | _ -> Condition.wait work_cond mutex
  done;
  Mutex.unlock mutex

let ensure_workers wanted =
  Mutex.lock mutex;
  shutting_down := false;
  let have = List.length !worker_handles in
  for _ = have + 1 to wanted do
    worker_handles := Domain.spawn worker_body :: !worker_handles
  done;
  Metrics.set g_workers (float_of_int (List.length !worker_handles));
  Mutex.unlock mutex

let shutdown () =
  Mutex.lock mutex;
  let handles = !worker_handles in
  worker_handles := [];
  shutting_down := true;
  Condition.broadcast work_cond;
  Mutex.unlock mutex;
  List.iter Domain.join handles;
  Mutex.lock mutex;
  shutting_down := false;
  Mutex.unlock mutex

let () = at_exit shutdown

(* Publish a batch, help drain it, wait for the stragglers.  Batches
   are serialized: only the main domain submits (workers run nested
   batches inline), but tests may race submissions, so queue politely
   on [done_cond]. *)
let run_batch ~helpers ~n ~chunk run_task =
  Mutex.lock mutex;
  while !current <> None do
    Condition.wait done_cond mutex
  done;
  incr next_batch_id;
  let b =
    {
      id = !next_batch_id;
      run_task;
      n;
      chunk;
      next = Atomic.make 0;
      completed = Atomic.make 0;
      helpers_wanted = helpers;
      joined = Atomic.make 0;
      finished = false;
    }
  in
  current := Some b;
  Metrics.incr m_batches;
  Metrics.incr ~by:n m_tasks;
  Metrics.set g_queue_depth (float_of_int n);
  Condition.broadcast work_cond;
  Mutex.unlock mutex;
  drain ~helper:false b;
  (* The submitter's wait for the helpers still running their last
     chunks: its own span, so a trace does not leave it as unexplained
     self time of the caller's span. *)
  let wait () =
    Mutex.lock mutex;
    while not b.finished do
      Condition.wait done_cond mutex
    done
  in
  if Tracer.enabled () then
    Tracer.with_span ~cat:"pool" ~args:[ ("batch", Tracer.Int b.id) ] "pool:wait" wait
  else wait ();
  current := None;
  Metrics.set g_queue_depth 0.0;
  (* Fraction of the process's domains (workers + the submitter) that
     took part in the batch just finished. *)
  let participants = min (Atomic.get b.joined) b.helpers_wanted + 1 in
  let capacity = List.length !worker_handles + 1 in
  Metrics.set g_utilization (float_of_int participants /. float_of_int capacity);
  Condition.broadcast done_cond;
  Mutex.unlock mutex

let map_array ?jobs f xs =
  let n = Array.length xs in
  let jobs = min (effective_jobs ?jobs ()) n in
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 then Array.map f xs
  else begin
    let results : 'b option array = Array.make n None in
    let failures : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let run_task i =
      match f xs.(i) with
      | r -> results.(i) <- Some r
      | exception e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    ensure_workers (jobs - 1);
    run_batch ~helpers:(jobs - 1) ~n ~chunk:(max 1 (n / (jobs * 4))) run_task;
    (* Deterministic failure semantics: the lowest-index exception is
       re-raised, as a sequential left-to-right run would. *)
    let first_failure = ref None in
    for i = n - 1 downto 0 do
      match failures.(i) with Some _ as f -> first_failure := f | None -> ()
    done;
    match !first_failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (function
          | Some r -> r
          | None -> assert false (* every task stored a result or failed *))
        results
  end

let map ?jobs f xs = Array.to_list (map_array ?jobs f (Array.of_list xs))
