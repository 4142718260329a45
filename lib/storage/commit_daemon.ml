(* Leader/follower group-commit coalescing.

   There is no background thread: the "daemon" is a role. The first
   committer to find no leader active becomes the leader, drains the
   whole queue, performs ONE physical append (and, under
   [`Always_fsync], one fsync) for everything drained, acks every
   follower, and keeps draining until the queue is empty. Committers
   arriving while a leader is mid-write enqueue and sleep; they are
   woken with their durability result when the leader's next batch
   lands. Under contention the fsync cost is amortized over the whole
   batch, which is where the fsyncs/txn << 1 scaling comes from.

   The adaptive commit window: with W writers, the writers of the batch
   being fsynced cannot re-enqueue until it completes, so rounds tend to
   alternate between large and singleton batches and the fsync
   amortization stalls near 2x. The leader therefore holds the drain in
   short naps ([nap]) while the round is still smaller
   than what contention suggests it could reach — the larger of the
   previous round's size and the count of writers currently inside
   {!submit} ([active], the commit_siblings idea) — stopping as soon as
   a nap brings no new arrival. Single-threaded neither signal ever
   exceeds the leader's own queued entry, so the window never fires and
   the uncontended latency is untouched. *)

module E = Seed_util.Seed_error

type stats = {
  submitted : int;
  batches : int;
  fsyncs : int;
  max_batch : int;
  queue_hwm : int;
}

type ticket = { mutable outcome : (unit, E.t) result option }

type t = {
  write : string list -> (unit, E.t) result;
  always_fsync : bool;  (* count fsyncs and hold the commit window *)
  active : int Atomic.t;  (* writers currently inside [submit] *)
  m : Mutex.t;
  c : Condition.t;
  mutable queue : (string * ticket) list;  (* sealed frames, newest first *)
  mutable queued : int;
  mutable leader : bool;
  mutable paused : bool;
  mutable last_round : int;  (* size of the previous drained batch *)
  mutable submitted : int;
  mutable batches : int;
  mutable fsyncs : int;
  mutable max_batch : int;
  mutable queue_hwm : int;
}

(* The commit window only pays off when the physical write is
   dominated by an fsync worth amortizing; it is off under
   [`Flush_only], where writes are near-free. The nap request is tiny
   because the OS floor rounds it up to tens of microseconds — about
   half an fsync — which is the hold we actually want. *)
let nap = 1e-5

let create sync write =
  {
    write;
    always_fsync = sync = `Always_fsync;
    active = Atomic.make 0;
    m = Mutex.create ();
    c = Condition.create ();
    queue = [];
    queued = 0;
    leader = false;
    paused = false;
    last_round = 1;
    submitted = 0;
    batches = 0;
    fsyncs = 0;
    max_batch = 0;
    queue_hwm = 0;
  }

(* Runs with [t.m] held; releases it around the physical write. On an
   exception from [write] (a fault injector's crash), every drained
   ticket is failed and waiters woken before the exception propagates,
   so follower domains never deadlock on a dead leader. *)
let lead t =
  while t.queued > 0 && not t.paused do
    (* Adaptive commit window (see header): while contention suggests
       the round can still grow — more writers in flight than queued
       here, or the previous round coalesced more — hold the drain so
       they land in this batch instead of forcing one fsync each.
       Stop as soon as a nap brings nobody new. *)
    (if t.always_fsync then
       let target = max t.last_round (Atomic.get t.active) in
       let arrived = ref true in
       let naps = ref 0 in
       while !arrived && t.queued < target && !naps < 4 do
         let before = t.queued in
         incr naps;
         Mutex.unlock t.m;
         (try Unix.sleepf nap with _ -> ());
         Mutex.lock t.m;
         arrived := t.queued > before
       done);
    let batch = List.rev t.queue in
    t.queue <- [];
    t.queued <- 0;
    let n = List.length batch in
    t.last_round <- n;
    if n > t.max_batch then t.max_batch <- n;
    Mutex.unlock t.m;
    let res =
      try t.write (List.map fst batch)
      with e ->
        (* Re-raised with [t.m] held so the unlock in [submit]'s
           [finally] finds the invariant it expects. *)
        Mutex.lock t.m;
        List.iter
          (fun (_, tk) ->
            tk.outcome <- Some (E.fail (E.Io_error "commit leader crashed")))
          batch;
        t.leader <- false;
        Condition.broadcast t.c;
        raise e
    in
    Mutex.lock t.m;
    t.batches <- t.batches + 1;
    if t.always_fsync && Result.is_ok res then t.fsyncs <- t.fsyncs + 1;
    List.iter (fun (_, tk) -> tk.outcome <- Some res) batch;
    Condition.broadcast t.c
  done

let rec drive t tk =
  match tk.outcome with
  | Some res -> res
  | None ->
      if t.leader || t.paused then (
        Condition.wait t.c t.m;
        drive t tk)
      else (
        t.leader <- true;
        Fun.protect
          ~finally:(fun () ->
            (* [lead] restores the lock and clears leadership itself on
               the exception path; on normal return we do it here. *)
            if t.leader then (
              t.leader <- false;
              Condition.broadcast t.c))
          (fun () -> lead t);
        drive t tk)

(* A writer counts in [active] from before it takes [t.m] until it
   returns or raises: a leader holds its drain while other writers are
   still on their way to the queue. *)
let submit t frame =
  Atomic.incr t.active;
  Mutex.lock t.m;
  let tk = { outcome = None } in
  t.queue <- (frame, tk) :: t.queue;
  t.queued <- t.queued + 1;
  t.submitted <- t.submitted + 1;
  if t.queued > t.queue_hwm then t.queue_hwm <- t.queued;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.m;
      Atomic.decr t.active)
    (fun () -> drive t tk)

let pause t =
  Mutex.lock t.m;
  t.paused <- true;
  while t.leader do
    Condition.wait t.c t.m
  done;
  Mutex.unlock t.m

let resume t =
  Mutex.lock t.m;
  t.paused <- false;
  Condition.broadcast t.c;
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  let s =
    {
      submitted = t.submitted;
      batches = t.batches;
      fsyncs = t.fsyncs;
      max_batch = t.max_batch;
      queue_hwm = t.queue_hwm;
    }
  in
  Mutex.unlock t.m;
  s
