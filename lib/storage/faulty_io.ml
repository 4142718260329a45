exception Crash of { step : int; op : string }

let () =
  Printexc.register_printer (function
    | Crash { step; op } ->
      Some (Printf.sprintf "Faulty_io.Crash (step %d, %s)" step op)
    | _ -> None)

type t = {
  base : Io.t;
  crash_at : int option;
  torn : bool;
  fail_fsync : int option;
  fail_rename : int option;
  enospc_write : int option;
  transient_reads : int;
  eio_read : int option;
  short_read : int option;
  flip_read : int option;
  lie_fsync : bool;
  mutable step : int;
  mutable fsyncs : int;
  mutable renames : int;
  mutable writes : int;
  mutable read_count : int;
  mutable crashed : bool;
}

let create ?(base = Io.real) ?crash_at ?(torn = false) ?fail_fsync ?fail_rename
    ?enospc_write ?(transient_reads = 0) ?eio_read ?short_read ?flip_read
    ?(lie_fsync = false) () =
  {
    base;
    crash_at;
    torn;
    fail_fsync;
    fail_rename;
    enospc_write;
    transient_reads;
    eio_read;
    short_read;
    flip_read;
    lie_fsync;
    step = 0;
    fsyncs = 0;
    renames = 0;
    writes = 0;
    read_count = 0;
    crashed = false;
  }

let steps t = t.step
let reads t = t.read_count

(* Checks the crash schedule for the operation about to run. [partial]
   is run before dying when the fault is a torn write. *)
let gate t op ?partial () =
  if t.crashed then raise (Crash { step = t.step; op });
  let n = t.step in
  t.step <- n + 1;
  match t.crash_at with
  | Some c when c = n ->
    t.crashed <- true;
    (match partial with Some f when t.torn -> f () | _ -> ());
    raise (Crash { step = n; op })
  | _ -> ()

let count_of t = function
  | `Fsync ->
    let k = t.fsyncs in
    t.fsyncs <- k + 1;
    (k, t.fail_fsync)
  | `Rename ->
    let k = t.renames in
    t.renames <- k + 1;
    (k, t.fail_rename)
  | `Write ->
    let k = t.writes in
    t.writes <- k + 1;
    (k, t.enospc_write)

let failing t kind = match count_of t kind with k, Some f -> k = f | _ -> false

let half s = String.sub s 0 (String.length s / 2)

(* Reads keep their own counter so read faults never perturb the global
   crash-step schedule that write-path sweeps are calibrated against. *)
let faulty_read t path =
  if t.crashed then raise (Crash { step = t.step; op = "read " ^ path });
  let k = t.read_count in
  t.read_count <- k + 1;
  if k < t.transient_reads then
    raise (Unix.Unix_error (Unix.EINTR, "read", path));
  if t.eio_read = Some k then
    raise (Unix.Unix_error (Unix.EIO, "read", path));
  let s = t.base.Io.read_file path in
  let s = if t.short_read = Some k then half s else s in
  if t.flip_read = Some k && String.length s > 0 then begin
    (* flip one bit in the middle byte, deterministically *)
    let b = Bytes.of_string s in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.unsafe_to_string b
  end
  else s

let wrap_file t path (f : Io.file) : Io.file =
  {
    Io.write =
      (fun s ->
        gate t ("write " ^ path) ~partial:(fun () -> f.Io.write (half s)) ();
        if failing t `Write then begin
          (* a full disk accepts a prefix, then refuses the rest *)
          f.Io.write (half s);
          raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
        end;
        f.Io.write s);
    fsync =
      (fun () ->
        gate t ("fsync " ^ path) ();
        if failing t `Fsync then
          raise (Unix.Unix_error (Unix.EIO, "fsync", path));
        (* a lying fsync reports success without flushing anything *)
        if not t.lie_fsync then f.Io.fsync ());
    (* a length query is no I/O step: sweeps keep their numbering *)
    size = f.Io.size;
    (* closing after a crash releases the descriptor (as the OS would)
       but, like every raw-fd close, flushes nothing *)
    close = (fun () -> f.Io.close ());
  }

let io t : Io.t =
  let b = t.base in
  {
    Io.open_append =
      (fun path ->
        gate t ("open_append " ^ path) ();
        wrap_file t path (b.Io.open_append path));
    open_trunc =
      (fun path ->
        gate t ("open_trunc " ^ path) ();
        wrap_file t path (b.Io.open_trunc path));
    rename =
      (fun src dst ->
        gate t ("rename " ^ dst) ();
        if failing t `Rename then
          raise (Unix.Unix_error (Unix.EIO, "rename", dst));
        b.Io.rename src dst);
    unlink =
      (fun path ->
        gate t ("unlink " ^ path) ();
        b.Io.unlink path);
    truncate =
      (fun path len ->
        gate t ("truncate " ^ path) ();
        b.Io.truncate path len);
    fsync_dir =
      (fun dir ->
        gate t ("fsync_dir " ^ dir) ();
        if failing t `Fsync then
          raise (Unix.Unix_error (Unix.EIO, "fsync", dir));
        if not t.lie_fsync then b.Io.fsync_dir dir);
    exists = b.Io.exists;
    read_file = (fun path -> faulty_read t path);
  }
