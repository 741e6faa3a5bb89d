(* Work-stealing-free domain pool: one mutex, one task cursor.  Tasks are
   dealt one index at a time; eval-layer tasks are whole failure-scenario
   simulations (micro- to milliseconds), so cursor contention is noise.
   Determinism comes from writing results into per-index slots — the
   interleaving of domains is invisible to the caller. *)

type job = { run : worker:int -> int -> unit; total : int }

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* workers: a new job generation is available *)
  finished : Condition.t; (* master: all tasks of the current job done *)
  mutable job : job option;
  mutable gen : int; (* bumped once per submitted job *)
  mutable next : int; (* next task index to deal *)
  mutable completed : int;
  mutable busy : bool; (* a map is in flight (reentrancy guard) *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* One task, with profiler accounting when enabled: every task is a
   "pool.task" span (count = tasks run, total = busy time), tasks picked
   up by a spawned domain also bump the steal counter.  The span closes
   before the mutex is re-taken, so lock waits never pollute busy time. *)
let exec_task (j : job) ~worker i =
  if Prof.enabled () then begin
    if worker > 0 then Prof.count "pool.tasks.stolen";
    Prof.span "pool.task" (fun () -> j.run ~worker i)
  end
  else j.run ~worker i

(* Drain tasks of generation [gen] as worker [worker] (0 = the calling
   domain, >= 1 = spawned domains); the mutex is held on entry and
   exit. *)
let drain t ~worker ~gen (j : job) =
  let rec loop () =
    if t.gen = gen && t.next < j.total then begin
      let i = t.next in
      t.next <- i + 1;
      Mutex.unlock t.mutex;
      exec_task j ~worker i;
      Mutex.lock t.mutex;
      t.completed <- t.completed + 1;
      if t.completed >= j.total then Condition.broadcast t.finished;
      loop ()
    end
  in
  loop ()

let rec worker_loop t ~worker ~last_gen =
  Mutex.lock t.mutex;
  while (not t.stop) && t.gen = last_gen do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let gen = t.gen in
    (* The master may have drained the whole job and cleared it before
       this worker woke up — then there is nothing to do but catch up
       on the generation counter. *)
    (match t.job with Some j -> drain t ~worker ~gen j | None -> ());
    Mutex.unlock t.mutex;
    worker_loop t ~worker ~last_gen:gen
  end

let create ~jobs =
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      gen = 0;
      next = 0;
      completed = 0;
      busy = false;
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun k ->
        Domain.spawn (fun () -> worker_loop t ~worker:(k + 1) ~last_gen:0));
  t

let jobs t = t.jobs

let run_tasks t ~total run =
  if total > 0 then begin
    Mutex.lock t.mutex;
    if t.busy || t.stop || t.jobs = 1 then begin
      (* Reentrant call from inside a task, or no workers: run inline.
         Sequential index order keeps nested maps deterministic.  Worker
         -1 marks tasks not dealt to a pool domain. *)
      Mutex.unlock t.mutex;
      let j = { run; total } in
      for i = 0 to total - 1 do
        exec_task j ~worker:(-1) i
      done
    end
    else begin
      t.busy <- true;
      t.job <- Some { run; total };
      t.gen <- t.gen + 1;
      t.next <- 0;
      t.completed <- 0;
      let gen = t.gen in
      Condition.broadcast t.work;
      drain t ~worker:0 ~gen { run; total };
      while t.completed < total do
        Condition.wait t.finished t.mutex
      done;
      t.job <- None;
      t.busy <- false;
      Mutex.unlock t.mutex
    end
  end

exception Task_failed of { worker : int; task : int; error : exn }

let () =
  Printexc.register_printer (function
    | Task_failed { worker; task; error } ->
      Some
        (Printf.sprintf "Sim.Pool.Task_failed: task %d on %s: %s" task
           (if worker < 0 then "the calling domain (inline)"
            else Printf.sprintf "worker %d" worker)
           (Printexc.to_string error))
    | _ -> None)

let map_array t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let run ~worker i =
      match f xs.(i) with
      | y -> out.(i) <- Some (Ok y)
      | exception error ->
        out.(i) <-
          Some
            (Error
               ( Task_failed { worker; task = i; error },
                 Printexc.get_raw_backtrace () ))
    in
    Prof.span "pool.map" (fun () -> run_tasks t ~total:n run);
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      out
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* ---------- process-global pool ---------- *)

let global : t option ref = ref None
let global_jobs = ref 1

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  (match !global with
  | Some p when jobs p <> n ->
    shutdown p;
    global := None
  | _ -> ());
  global_jobs := n

let current_jobs () = !global_jobs

let map f xs =
  if !global_jobs = 1 then List.map f xs
  else begin
    let p =
      match !global with
      | Some p -> p
      | None ->
        let p = create ~jobs:!global_jobs in
        global := Some p;
        p
    in
    Array.to_list (map_array p f (Array.of_list xs))
  end
