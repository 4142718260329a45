(* The bench harness: one measurement, one row type and one writer.

   Every timed number is [rounds] rounds of the same calls. A round
   times a batch of calls sized so that it lasts at least [round_s]; a
   case with a per-call set-up times one call per round, after its
   set-up. The median, min and max are over the rounds' seconds per
   call. Where a row compares arms, the arms alternate round by round,
   so drift in the host (fsync latency, a neighbour's load) lands on
   every arm alike. *)

let rounds = 7

let round_s = 0.005

(* seconds per call over the rounds, and minor and direct major words
   per timed call *)
type timing = { med : float; min : float; max : float; words : float; major : float }

type arm = { setup : (unit -> unit) option; call : unit -> unit }

let arm ?setup call = { setup; call }

(* words allocated directly in the major heap: what [Gc.counters] counts
   as major but not promoted (large blocks). [Gc.quick_stat]'s major
   words lag until the next minor collection, so they are not used. *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* seconds, minor words and direct major words of [n] calls of [f] *)
let time_calls f n =
  let m0 = direct_major () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  let t = Unix.gettimeofday () -. t0 in
  (* the minor words first: reading the counters allocates *)
  let w = Gc.minor_words () -. w0 in
  (t, w, direct_major () -. m0)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* the batch size of a round; the calibration calls warm the arm up *)
let rec batch f n =
  let t, _, _ = time_calls f n in
  if t >= round_s then n else batch f (2 * n)

let measure_arms arms =
  let arms = Array.of_list arms in
  let sizes =
    Array.map (fun a -> if Option.is_none a.setup then batch a.call 1 else 1) arms
  in
  let secs = Array.make_matrix (Array.length arms) rounds 0. in
  let words = Array.make (Array.length arms) 0. in
  let major = Array.make (Array.length arms) 0. in
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun i a ->
        Option.iter (fun setup -> setup ()) a.setup;
        let t, w, m = time_calls a.call sizes.(i) in
        secs.(i).(r) <- t /. float_of_int sizes.(i);
        words.(i) <- words.(i) +. w;
        major.(i) <- major.(i) +. m)
      arms
  done;
  Array.mapi
    (fun i s ->
      let calls = float_of_int (rounds * sizes.(i)) in
      {
        med = median s;
        min = Array.fold_left Float.min infinity s;
        max = Array.fold_left Float.max neg_infinity s;
        words = words.(i) /. calls;
        major = major.(i) /. calls;
      })
    secs

let measure ?setup call = (measure_arms [ arm ?setup call ]).(0)

let measure_ab a b =
  let t = measure_arms [ a; b ] in
  (t.(0), t.(1))

(* a timing of calls that each do [n] operations, per operation *)
let per n t =
  let f = float_of_int n in
  { med = t.med /. f; min = t.min /. f; max = t.max /. f; words = t.words /. f;
    major = t.major /. f }

(* --- rows ------------------------------------------------------------ *)

(* A [Range] is a timed value: median, min, max. Numbers carry their
   decimals, so the table and the JSON print the same digits. *)
type value =
  | Int of int
  | Num of int * float
  | Text of string
  | Bool of bool
  | Range of int * float * float * float

type row = (string * value) list

let scaled dec k t = Range (dec, t.med *. k, t.min *. k, t.max *. k)
let ns = scaled 1 1e9
let us = scaled 2 1e6
let ms = scaled 3 1e3

(* [count] operations per call, as operations per second *)
let rate ~count t =
  let c = float_of_int count in
  Range (0, c /. t.med, c /. t.max, c /. t.min)

let words t = Num (0, t.words)
let major_words t = Num (0, t.major)

(* the ratio of two medians *)
let ratio a b = Num (2, a.med /. b.med)

let num dec x = Printf.sprintf "%.*f" dec x

let cell = function
  | Int i -> string_of_int i
  | Num (d, x) -> num d x
  | Text s -> s
  | Bool b -> string_of_bool b
  | Range (d, m, lo, hi) -> Printf.sprintf "%s (%s-%s)" (num d m) (num d lo) (num d hi)

(* The console table of [rows]: a column per key, in order of first
   appearance; a row without a key shows "-" there. Timed cells read
   "median (min-max)". *)
let table ~title rows =
  Fmt.pr "@.### %s@.@." title;
  let keys =
    List.fold_left
      (fun ks row ->
        List.fold_left
          (fun ks (k, _) -> if List.mem k ks then ks else ks @ [ k ])
          ks row)
      [] rows
  in
  let cells =
    List.map
      (fun row ->
        List.map
          (fun k -> match List.assoc_opt k row with Some v -> cell v | None -> "-")
          keys)
      rows
  in
  let widths =
    List.fold_left
      (fun ws r -> List.map2 (fun w c -> max w (String.length c)) ws r)
      (List.map String.length keys)
      cells
  in
  let print_row r =
    Fmt.pr "| %s |@."
      (String.concat " | "
         (List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths r))
  in
  print_row keys;
  Fmt.pr "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row cells

(* --- BENCH_*.json ---------------------------------------------------- *)

(* The checkout's HEAD commit, read from [.git] without running git. *)
let git_rev () =
  let read f = String.trim (In_channel.with_open_text f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    if String.starts_with ~prefix:"ref: " head then
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown"

(* A digest of the library sources: it names the code measured also
   when the working tree differs from HEAD. *)
let lib_digest () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.sort String.compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
           else [])
  in
  try Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
  with Sys_error _ -> "unknown"

let json_field (k, v) =
  match v with
  | Range (d, m, lo, hi) ->
    Printf.sprintf "%S: %s, \"%s_min\": %s, \"%s_max\": %s" k (num d m) k (num d lo) k
      (num d hi)
  | Text s -> Printf.sprintf "%S: %S" k s
  | v -> Printf.sprintf "%S: %s" k (cell v)

(* Writes [BENCH_<suite>.json]: the suite name, the command that
   regenerates the file, the environment it ran in (the fields of
   perfbench's [env:] line), the rounds behind every timed value, the
   suite's [notes] (name, text), then the rows, one per line. *)
let write_json ?(notes = []) suite rows =
  let file = Printf.sprintf "BENCH_%s.json" suite in
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc
        "{\n  \"bench\": \"%s\",\n  \"command\": \"dune exec bench/main.exe \
         -- %s\",\n"
        suite suite;
      Printf.fprintf oc
        "  \"env\": {\"git_rev\": %S, \"lib_digest\": %S, \"nproc\": %d, \
         \"ocaml\": %S},\n"
        (git_rev ()) (lib_digest ()) (Domain.recommended_domain_count ())
        Sys.ocaml_version;
      Printf.fprintf oc "  \"repeats\": %d,\n" rounds;
      List.iter (fun (k, s) -> Printf.fprintf oc "  %S: %S,\n" k s) notes;
      Printf.fprintf oc "  \"results\": [\n%s\n  ]\n}\n"
        (String.concat ",\n"
           (List.map
              (fun row ->
                Printf.sprintf "    {%s}" (String.concat ", " (List.map json_field row)))
              rows)));
  Fmt.pr "@.wrote %s@." file

(* --- scratch stores ---------------------------------------------------- *)

let clear dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

(* A new empty directory under the temp dir; every one is removed when
   the harness exits. *)
let fresh_dir =
  let made = ref [] in
  at_exit (fun () ->
      List.iter
        (fun d ->
          if Sys.file_exists d then begin
            clear d;
            Sys.rmdir d
          end)
        !made);
  fun () ->
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "seed_bench_%d_%d" (Unix.getpid ()) (List.length !made))
    in
    Sys.mkdir d 0o755;
    made := d :: !made;
    d

(* The files of [dir] and their bytes, for [restore]. *)
let files dir =
  List.map
    (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
    (Array.to_list (Sys.readdir dir))

(* Makes [dir] hold exactly [files] again. *)
let restore dir files =
  clear dir;
  List.iter
    (fun (f, bytes) ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc bytes))
    files
