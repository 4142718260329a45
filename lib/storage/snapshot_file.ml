open Seed_util
open Seed_error

(* "SEE3": the snapshot header magic. Journal frames carry their own
   ("SEE4"), so snapshots written by earlier releases still read. *)
let magic = 0x53454533l

let header_bytes = 16

let wrap_io = Seed_error.wrap_io

let write ?(io = Io.real) path ~epoch payload =
  let tmp = path ^ ".tmp" in
  let quiet_unlink () =
    (* only for the error path below — a Crash never reaches here, so
       this cannot swallow a simulated abort *)
    try io.Io.unlink tmp with Sys_error _ | Unix.Unix_error _ -> ()
  in
  try
    let f = io.Io.open_trunc tmp in
    Fun.protect
      ~finally:(fun () -> f.Io.close ())
      (fun () ->
        let b = Buffer.create (String.length payload + header_bytes) in
        Buffer.add_int32_le b magic;
        Buffer.add_int32_le b (Int32.of_int epoch);
        Buffer.add_int32_le b (Int32.of_int (String.length payload));
        Buffer.add_int32_le b (Crc32.digest payload);
        Buffer.add_string b payload;
        f.Io.write (Buffer.contents b);
        f.Io.fsync ());
    io.Io.rename tmp path;
    io.Io.fsync_dir (Filename.dirname path);
    Ok ()
  with
  | (Sys_error _ | Unix.Unix_error _) as e ->
    quiet_unlink ();
    (* classify through the shared wrapper (transient vs permanent) *)
    wrap_io (fun () -> raise e)

type payload = { file : string; pos : int; len : int }

let read ?(io = Io.real) path =
  if not (io.Io.exists path) then Ok None
  else
    let* contents = wrap_io (fun () -> io.Io.read_file path) in
    if String.length contents < header_bytes then
      fail (Corrupt ("snapshot " ^ path ^ ": too short"))
    else
      let m = String.get_int32_le contents 0 in
      let epoch = Int32.to_int (String.get_int32_le contents 4) in
      let len = Int32.to_int (String.get_int32_le contents 8) in
      let crc = String.get_int32_le contents 12 in
      if m <> magic then
        fail (Corrupt ("snapshot " ^ path ^ ": bad magic"))
      else if epoch < 0 then
        fail (Corrupt ("snapshot " ^ path ^ ": negative epoch"))
      else if len <> String.length contents - header_bytes then
        fail (Corrupt ("snapshot " ^ path ^ ": bad length"))
      else if
        (* checked in place: the payload stays where the read put it *)
        Crc32.digest_sub (Bytes.unsafe_of_string contents) ~pos:header_bytes ~len <> crc
      then fail (Corrupt ("snapshot " ^ path ^ ": crc mismatch"))
      else Ok (Some (epoch, { file = contents; pos = header_bytes; len }))
