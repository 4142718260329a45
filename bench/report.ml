(* Bechamel plumbing, plain-text tables for the non-timing metrics
   (bytes, operation counts) the experiments report, and the one writer
   of the committed BENCH_*.json files. *)

open Bechamel
open Toolkit

let run_tests ?(quota = 0.5) tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let () =
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ]

let print_results window results =
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.output_image (Notty_unix.eol img)

let window =
  match Notty_unix.winsize Unix.stdout with
  | Some (w, h) -> { Bechamel_notty.w; h }
  | None -> { Bechamel_notty.w = 100; h = 1 }

let bench ?quota ~name tests =
  Fmt.pr "@.### %s@.@." name;
  let results = run_tests ?quota (Test.make_grouped ~name tests) in
  print_results window results

(* --- plain tables --------------------------------------------------- *)

let table ~title ~header rows =
  Fmt.pr "@.### %s@.@." title;
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    Fmt.pr "| %s |@."
      (String.concat " | "
         (List.map2
            (fun w c -> c ^ String.make (w - String.length c) ' ')
            widths row))
  in
  print_row header;
  Fmt.pr "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

let human_bytes n =
  if n > 1_048_576 then Printf.sprintf "%.1f MiB" (float_of_int n /. 1_048_576.)
  else if n > 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
  else Printf.sprintf "%d B" n

(* wall-clock of a thunk, for macro measurements where bechamel's
   micro-benchmark harness does not fit (one-shot workloads) *)
let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ms t = Printf.sprintf "%.2f ms" (t *. 1000.)

(* --- BENCH_*.json --------------------------------------------------- *)

(* Writes [BENCH_<suite>.json]: the suite name, the command that
   regenerates the file, the [extra] header fields (name, raw JSON
   value) in order, then the result objects, one per line. *)
let write_json ?(extra = []) suite results =
  let file = Printf.sprintf "BENCH_%s.json" suite in
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc
        "{\n  \"bench\": \"%s\",\n  \"command\": \"dune exec bench/main.exe \
         -- %s\",\n"
        suite suite;
      List.iter (fun (k, v) -> Printf.fprintf oc "  \"%s\": %s,\n" k v) extra;
      Printf.fprintf oc "  \"results\": [\n%s\n  ]\n}\n"
        (String.concat ",\n" results));
  Fmt.pr "@.wrote %s@." file
