(* Measurement helpers: growable sample buffers, percentiles, and the
   counting/timing wrapper around the storage layer's I/O environment. *)

let now = Unix.gettimeofday

(* --- samples ----------------------------------------------------------- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.a 0 s.n
let count s = s.n

let merge l =
  let m = samples () in
  List.iter (fun s -> for i = 0 to s.n - 1 do add m s.a.(i) done) l;
  m

(* nearest-rank percentile, [q] in 0..1; 0 when there are no samples *)
let pct s q =
  if s.n = 0 then 0.0
  else begin
    let a = to_array s in
    Array.sort Float.compare a;
    let r = int_of_float (Float.ceil (q *. float s.n)) - 1 in
    a.(max 0 (min (s.n - 1) r))
  end

let median l =
  let s = samples () in
  List.iter (add s) l;
  pct s 0.5

let sum s =
  let t = ref 0.0 in
  for i = 0 to s.n - 1 do t := !t +. s.a.(i) done;
  !t

(* --- storage I/O ------------------------------------------------------- *)

(* Counts (always) and times (when [timed]) the journal and snapshot
   writes, fsyncs and whole-file reads the store performs. The store
   writes from whichever thread leads a commit round, so the counters
   are atomic and the sample buffers take a lock. *)
type io_counts = {
  write_bytes : int Atomic.t;
  fsyncs : int Atomic.t;
  read_bytes : int Atomic.t;
  io_lock : Mutex.t;
  write_s : samples;
  fsync_s : samples;
  timed : bool;
}

let io_counts ~timed =
  {
    write_bytes = Atomic.make 0;
    fsyncs = Atomic.make 0;
    read_bytes = Atomic.make 0;
    io_lock = Mutex.create ();
    write_s = samples ();
    fsync_s = samples ();
    timed;
  }

let timed c buf f =
  if c.timed then begin
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    Mutex.lock c.io_lock;
    add buf dt;
    Mutex.unlock c.io_lock;
    r
  end
  else f ()

let wrap_io c (io : Seed_storage.Io.t) =
  let file (f : Seed_storage.Io.file) =
    {
      f with
      Seed_storage.Io.write =
        (fun s ->
          timed c c.write_s (fun () -> f.write s);
          ignore (Atomic.fetch_and_add c.write_bytes (String.length s)));
      fsync =
        (fun () ->
          timed c c.fsync_s f.fsync;
          Atomic.incr c.fsyncs);
    }
  in
  {
    io with
    Seed_storage.Io.open_append = (fun p -> file (io.open_append p));
    open_trunc = (fun p -> file (io.open_trunc p));
    read_file =
      (fun p ->
        let s = io.read_file p in
        ignore (Atomic.fetch_and_add c.read_bytes (String.length s));
        s);
  }

type io_snap = {
  s_write_bytes : int;
  s_fsyncs : int;
  s_write_n : int;  (* samples recorded so far *)
  s_fsync_n : int;
}

let io_snap c =
  Mutex.lock c.io_lock;
  let s =
    {
      s_write_bytes = Atomic.get c.write_bytes;
      s_fsyncs = Atomic.get c.fsyncs;
      s_write_n = c.write_s.n;
      s_fsync_n = c.fsync_s.n;
    }
  in
  Mutex.unlock c.io_lock;
  s

(* the samples recorded between two snapshots *)
let since buf ~from ~upto =
  let s = samples () in
  for i = from to upto - 1 do add s buf.a.(i) done;
  s

(* --- the process ------------------------------------------------------- *)

(* system-wide (steal, all) CPU ticks from /proc/stat (Linux): time the
   hypervisor gave to other guests while this one wanted to run *)
let cpu_ticks () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"cpu " l ->
          let f =
            String.split_on_char ' ' l
            |> List.filter (( <> ) "")
            |> List.tl |> List.map int_of_string
          in
          let steal = if List.length f > 7 then List.nth f 7 else 0 in
          (steal, List.fold_left ( + ) 0 f)
        | _ -> (0, 0))
  with Sys_error _ | Failure _ -> (0, 0)

(* peak resident set, from /proc (Linux); 0 when unavailable *)
let vm_hwm_kib () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0
