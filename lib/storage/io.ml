type file = {
  write : string -> unit;
  fsync : unit -> unit;
  size : unit -> int;
  close : unit -> unit;
}

type t = {
  open_append : string -> file;
  open_trunc : string -> file;
  rename : string -> string -> unit;
  unlink : string -> unit;
  truncate : string -> int -> unit;
  fsync_dir : string -> unit;
  exists : string -> bool;
  read_file : string -> string;
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let of_fd fd =
  let closed = ref false in
  {
    write = (fun s -> write_all fd s);
    fsync = (fun () -> Unix.fsync fd);
    size = (fun () -> (Unix.fstat fd).Unix.st_size);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          Unix.close fd
        end);
  }

let open_flags flags path = of_fd (Unix.openfile path flags 0o644)

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* some filesystems refuse fsync on a directory fd; treat that as
         "nothing to sync" rather than an error *)
      try Unix.fsync fd with
      | Unix.Unix_error ((Unix.EINVAL | Unix.EBADF), _, _) -> ())

let real =
  {
    open_append =
      open_flags [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ];
    open_trunc = open_flags [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ];
    rename = Sys.rename;
    unlink = Sys.remove;
    truncate = Unix.truncate;
    fsync_dir;
    exists = Sys.file_exists;
    read_file =
      (fun path -> In_channel.with_open_bin path In_channel.input_all);
  }
