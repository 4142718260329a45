(* seed — a command-line shell around a persistent SEED database.

   The database lives in a directory (snapshot + journal). Every command
   opens the directory, performs its operation, flushes, and exits; the
   directory is created by `seed init`.

     seed init /tmp/db
     seed add /tmp/db --class Thing Alarms
     seed set /tmp/db Alarms.Description "Alarms are things"
     seed reclassify /tmp/db Alarms Data
     seed link /tmp/db --assoc Access --from Alarms --by Sensor
     seed report /tmp/db
     seed snapshot /tmp/db
     seed show /tmp/db Alarms
     seed history /tmp/db Alarms *)

open Cmdliner
open Seed_util
open Seed_schema
module DB = Seed_core.Database
module Persist = Seed_core.Persist
module Protocol = Seed_server.Protocol

let exit_err e =
  Fmt.epr "seed: %s@." (Seed_error.to_string e);
  exit 1

let warn_recovery session =
  let r = Persist.Session.recovery session in
  if not (Seed_storage.Store.recovery_clean r) then
    Fmt.epr "seed: warning: recovery was not clean: %a@."
      Seed_storage.Store.pp_recovery r

let with_session dir f =
  match Persist.Session.open_ ~dir () with
  | Error e -> exit_err e
  | Ok session ->
    warn_recovery session;
    let db = Persist.Session.db session in
    let result = f db in
    (match Persist.Session.flush session with
    | Ok () -> ()
    | Error e ->
      Persist.Session.close session;
      exit_err e);
    Persist.Session.close session;
    (match result with Ok () -> () | Error e -> exit_err e)

let dir_arg =
  Arg.(
    required
    & pos 0 (some dir) None
    & info [] ~docv:"DB" ~doc:"Database directory.")

let dir_new_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DB" ~doc:"Database directory (created).")

(* --- init ----------------------------------------------------------- *)

let init_cmd =
  let run dir schema_file =
    let schema =
      match schema_file with
      | None -> Spades_tool.Spec_model.schema
      | Some path -> (
        let src =
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Schema_text.parse src with
        | Ok s -> s
        | Error e -> exit_err e)
    in
    match Persist.Session.open_ ~dir ~schema () with
    | Error e -> exit_err e
    | Ok session ->
      (match Persist.Session.compact session with
      | Ok () -> Fmt.pr "initialized SEED database in %s@." dir
      | Error e ->
        Persist.Session.close session;
        exit_err e);
      Persist.Session.close session
  in
  let schema_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema"; "s" ] ~docv:"FILE"
          ~doc:
            "Schema definition file (see the Schema_text language); \
             defaults to the built-in SPADES specification schema.")
  in
  Cmd.v
    (Cmd.info "init"
       ~doc:"Create a database (default: the SPADES specification schema).")
    Term.(const run $ dir_new_arg $ schema_file)

let schema_cmd =
  let run dir =
    with_session dir (fun db ->
        print_string (Schema_text.print (DB.schema db));
        Ok ())
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Print the database's schema in the textual \
                             schema language.")
    Term.(const run $ dir_arg)

(* --- add / set / reclassify / link --------------------------------------

   Each update subcommand is one operation of the update language,
   applied by the interpreter a served check-in runs; [confirm] prints
   its line from the item the operation created or changed. *)
let update dir op confirm =
  with_session dir (fun db -> Result.map confirm (Protocol.apply db op))

let add_cmd =
  let run dir cls pattern name =
    update dir (Create_object { cls; name; pattern }) (fun id ->
        Fmt.pr "created %s %s (%a)@."
          (if pattern then "pattern" else "object")
          name Ident.pp id)
  in
  let cls =
    Arg.(
      value
      & opt string "Thing"
      & info [ "class"; "c" ] ~docv:"CLASS" ~doc:"Object class (default Thing).")
  in
  let pattern =
    Arg.(value & flag & info [ "pattern" ] ~doc:"Enter the object as a pattern.")
  in
  let name_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "add" ~doc:"Add an independent object.")
    Term.(const run $ dir_arg $ cls $ pattern $ name_arg)

let set_cmd =
  let run dir path value =
    update dir (Set_text { path; text = value }) (fun _ ->
        Fmt.pr "%s = %s@." path value)
  in
  let path = Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH") in
  let value = Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE") in
  Cmd.v
    (Cmd.info "set"
       ~doc:"Set the value of a (sub-)object, creating the sub-object if \
             needed. VALUE is read for the content type of its place: a \
             STRING takes the text verbatim, any other type reads one \
             data-text literal (1986-02-05, 2.5, nan, an enum constant). \
             A sub-object of a multi-valued role is named by its index \
             (Alarms.Keywords[2]).")
    Term.(const run $ dir_arg $ path $ value)

let reclassify_cmd =
  let run dir name cls =
    update dir (Reclassify_obj { name; to_ = cls }) (fun _ ->
        Fmt.pr "%s is now a %s@." name cls)
  in
  let name_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME") in
  let cls = Arg.(required & pos 2 (some string) None & info [] ~docv:"CLASS") in
  Cmd.v
    (Cmd.info "reclassify"
       ~doc:"Make vague information more precise (or vaguer) by moving an \
             object within its generalization hierarchy.")
    Term.(const run $ dir_arg $ name_arg $ cls)

let link_cmd =
  let run dir assoc from_ by =
    update dir (Create_rel { assoc; endpoints = [ from_; by ]; pattern = false })
      (fun id -> Fmt.pr "%s(%s, %s) created (%a)@." assoc from_ by Ident.pp id)
  in
  let assoc =
    Arg.(
      value & opt string "Access"
      & info [ "assoc"; "a" ] ~docv:"ASSOC" ~doc:"Association (default Access).")
  in
  let from_ =
    Arg.(required & opt (some string) None & info [ "from" ] ~docv:"NAME")
  in
  let by = Arg.(required & opt (some string) None & info [ "by" ] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "link" ~doc:"Relate two objects.")
    Term.(const run $ dir_arg $ assoc $ from_ $ by)

(* --- listings ---------------------------------------------------------- *)

(* What [show], [report] and [versions] print; the subcommands and the
   shell's commands of the same names share them. *)

(* one object tree, or (no name) every object and then the patterns *)
let print_show db name =
  let v = DB.view db in
  let module View = Seed_core.View in
  let rec print_tree indent (vi : View.vitem) =
    let label =
      match View.vitem_name v vi with
      | Some n -> n
      | None -> Ident.to_string vi.View.item.Seed_core.Item.id
    in
    let value =
      match View.obj_state v vi.View.item with
      | Some { Seed_core.Item.value = Some value; _ } ->
        " = " ^ Value.to_string value
      | _ -> ""
    in
    let cls =
      match View.obj_state v vi.View.item with
      | Some o -> o.Seed_core.Item.cls
      | None -> "?"
    in
    let inherited = if vi.View.via <> None then "  (inherited)" else "" in
    Fmt.pr "%s%s : %s%s%s@." (String.make indent ' ') label cls value
      inherited;
    List.iter (print_tree (indent + 2)) (View.children_v v vi)
  in
  match name with
  | Some n -> (
    match View.resolve_name v n with
    | Some item ->
      print_tree 0 (View.vitem_real item);
      Ok ()
    | None -> Seed_error.fail (Seed_error.Unknown_object n))
  | None ->
    List.iter (fun it -> print_tree 0 (View.vitem_real it)) (View.all_objects v);
    let patterns = View.all_patterns v in
    if patterns <> [] then begin
      Fmt.pr "@.patterns:@.";
      List.iter (fun it -> print_tree 2 (View.vitem_real it)) patterns
    end;
    Ok ()

let print_report db =
  let report = DB.completeness_report db in
  if report = [] then Fmt.pr "the database is complete@."
  else begin
    Fmt.pr "%d incompleteness finding(s):@." (List.length report);
    List.iter
      (fun d -> Fmt.pr "  - %a@." Seed_core.Completeness.pp_diagnostic d)
      report
  end

let print_versions db =
  List.iter
    (fun (n : Seed_core.Versioning.node) ->
      Fmt.pr "%a%s@." Version_id.pp n.Seed_core.Versioning.vid
        (match n.Seed_core.Versioning.parent with
        | Some p -> "  (from " ^ Version_id.to_string p ^ ")"
        | None -> ""))
    (DB.versions db)

(* --- show ------------------------------------------------------------ *)

let show_cmd =
  let run dir name = with_session dir (fun db -> print_show db name) in
  let name_arg = Arg.(value & pos 1 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "show" ~doc:"Print an object tree (or the whole database).")
    Term.(const run $ dir_arg $ name_arg)

(* --- dot -------------------------------------------------------------- *)

let dot_cmd =
  let run dir no_subs no_patterns =
    with_session dir (fun db ->
        print_string
          (Seed_core.Dot.of_view ~include_subs:(not no_subs)
             ~include_patterns:(not no_patterns) (DB.view db));
        Ok ())
  in
  let no_subs =
    Arg.(value & flag & info [ "no-subs" ] ~doc:"Omit sub-object values.")
  in
  let no_patterns =
    Arg.(value & flag & info [ "no-patterns" ] ~doc:"Omit patterns and inheritance.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit the current view as a Graphviz digraph (Fig. 1 style).")
    Term.(const run $ dir_arg $ no_subs $ no_patterns)

(* --- select ------------------------------------------------------------ *)

let select_cmd =
  let run dir cls incomplete =
    with_session dir (fun db ->
        let v = DB.view db in
        let module Q = Seed_core.Query in
        let pred =
          let base = match cls with None -> Q.is_a "Thing" | Some c -> Q.is_a c in
          if incomplete then Q.( &&& ) base Q.is_incomplete else base
        in
        List.iter
          (fun (it : Seed_core.Item.t) ->
            Fmt.pr "%s : %s@."
              (Option.get (Seed_core.View.full_name v it))
              (Option.value
                 (Seed_core.View.class_path_of v it)
                 ~default:"?"))
          (Q.select v pred);
        Ok ())
  in
  let cls =
    Arg.(
      value
      & opt (some string) None
      & info [ "class"; "c" ] ~docv:"CLASS"
          ~doc:"Only objects of this class or its specializations.")
  in
  let incomplete =
    Arg.(value & flag & info [ "incomplete" ] ~doc:"Only incomplete objects.")
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Query objects by class and completeness.")
    Term.(const run $ dir_arg $ cls $ incomplete)

(* --- explain ----------------------------------------------------------- *)

(* [PATH:]NEEDLE, as explain's contains= and the search commands take
   it: class paths never contain ':', so the first one splits off the
   path; without one the needle searches every path *)
let split_needle s =
  match String.index_opt s ':' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> ("", s)

(* tiny predicate language for the planner: terms [class=C], [isa=C],
   [name=N], [contains=PATH:NEEDLE] (or [contains=NEEDLE] for any path),
   [incomplete], combined with [and], [or], [not] — binding tightest to
   loosest: not, and, or *)
let parse_pred tokens =
  let module Q = Seed_core.Query in
  let open Seed_error in
  let atom tok =
    match String.index_opt tok '=' with
    | Some i -> (
      let k = String.sub tok 0 i
      and v = String.sub tok (i + 1) (String.length tok - i - 1) in
      match k with
      | "class" -> Ok (Q.in_class v)
      | "isa" -> Ok (Q.is_a v)
      | "name" -> Ok (Q.name_is v)
      | "contains" ->
        let path, needle = split_needle v in
        Ok (Q.contains path needle)
      | _ -> fail (Invalid_operation ("unknown predicate term " ^ tok)))
    | None -> (
      match tok with
      | "incomplete" -> Ok Q.is_incomplete
      | _ -> fail (Invalid_operation ("unknown predicate term " ^ tok)))
  in
  let rec parse_or toks =
    let* l, toks = parse_and toks in
    match toks with
    | "or" :: rest ->
      let* r, toks = parse_or rest in
      Ok (Q.( ||| ) l r, toks)
    | _ -> Ok (l, toks)
  and parse_and toks =
    let* l, toks = parse_not toks in
    match toks with
    | "and" :: rest ->
      let* r, toks = parse_and rest in
      Ok (Q.( &&& ) l r, toks)
    | _ -> Ok (l, toks)
  and parse_not = function
    | "not" :: rest ->
      let* p, toks = parse_not rest in
      Ok (Q.not_ p, toks)
    | tok :: rest ->
      let* p = atom tok in
      Ok (p, rest)
    | [] -> fail (Invalid_operation "empty predicate")
  in
  let* p, leftover = parse_or tokens in
  match leftover with
  | [] -> Ok p
  | tok :: _ -> fail (Invalid_operation ("predicate syntax error at " ^ tok))

let explain_pred db tokens =
  let open Seed_error in
  let* pred = parse_pred tokens in
  let module Q = Seed_core.Query in
  Fmt.pr "%a@." Q.pp_plan (Q.explain (DB.view db) pred);
  Ok ()

let explain_cmd =
  let run dir tokens = with_session dir (fun db -> explain_pred db tokens) in
  let tokens =
    Arg.(
      non_empty & pos_right 0 string []
      & info [] ~docv:"PRED"
          ~doc:
            "Predicate terms: $(b,class=C), $(b,isa=C), $(b,name=N), \
             $(b,contains=PATH:NEEDLE) (or $(b,contains=NEEDLE) for any \
             path), $(b,incomplete), combined with $(b,and), $(b,or), \
             $(b,not).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the access path the query planner would take for a \
          predicate — indexed candidate set with estimated cardinality \
          and whether it is exact, or a full scan and why — without \
          running the query.")
    Term.(const run $ dir_arg $ tokens)

(* --- export / import ---------------------------------------------------- *)

let export_cmd =
  let run dir =
    with_session dir (fun db ->
        print_string (Seed_core.Data_text.export_view (DB.view db));
        Ok ())
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write the current view as a data text (objects, patterns, \
             relationships).")
    Term.(const run $ dir_arg)

let import_cmd =
  let run dir file =
    with_session dir (fun db ->
        let src =
          let ic = open_in file in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let open Seed_error in
        let* () = Seed_core.Data_text.import db src in
        Fmt.pr "imported %s (%d objects now live)@." file (DB.object_count db);
        Ok ())
  in
  let file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Replay a data text into the database; every operation goes \
             through the consistency checker.")
    Term.(const run $ dir_arg $ file)

(* --- report ----------------------------------------------------------- *)

let report_cmd =
  let run dir =
    with_session dir (fun db ->
        print_report db;
        Ok ())
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Check the completeness conditions (minimum cardinalities, \
             covering generalizations) on demand.")
    Term.(const run $ dir_arg)

(* --- fsck ------------------------------------------------------------- *)

let fsck_cmd =
  let run dir repair =
    match Seed_storage.Store.fsck ~repair dir with
    | Error e -> exit_err e
    | Ok report ->
      Fmt.pr "%a" Seed_storage.Store.pp_fsck_report report;
      (* corruption found is reportable even when it was repaired: an
         operator piping fsck into CI must see a nonzero status *)
      if
        (not report.Seed_storage.Store.fsck_healthy)
        || report.Seed_storage.Store.fsck_repairs <> []
      then exit 1
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Fix what can be fixed: truncate a torn journal tail (a \
             transaction cut short by a crash), excise quarantined damaged \
             transactions, drop a stale journal, quarantine an unreadable \
             snapshot and promote the newest intact snapshot generation in \
             its place, remove damaged generations and leftover temporary \
             files. An unreadable snapshot with no intact generation is \
             quarantined (its data is lost).")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check the health of the store: snapshot and journal integrity, \
          compaction epochs, torn-tail bytes (a transaction cut short), \
          quarantined (damaged) transactions. \
          Exits non-zero when the store needs attention.")
    Term.(const run $ dir_arg $ repair)

(* --- salvage ----------------------------------------------------------- *)

let salvage_cmd =
  let run dir =
    let module Store = Seed_storage.Store in
    (* phase 1: repair everything fsck knows how to fix *)
    let repaired =
      match Store.fsck ~repair:true dir with
      | Error e -> exit_err e
      | Ok report ->
        Fmt.pr "%a" Store.pp_fsck_report report;
        if report.Store.fsck_repairs = [] then Fmt.pr "no repairs needed@.";
        report.Store.fsck_repairs <> []
    in
    (* phase 2: prove the store opens and the data is consistent *)
    match Persist.Session.open_ ~dir () with
    | Error e ->
      Fmt.epr "seed: store does not open after repair: %s@."
        (Seed_error.to_string e);
      exit 2
    | Ok session ->
      let r = Persist.Session.recovery session in
      Fmt.pr "recovery: %a@." Store.pp_recovery r;
      let objects = DB.object_count (Persist.Session.db session) in
      (* compacting folds the salvaged state into a fresh snapshot and
         drops quarantined journal damage for good *)
      (match Persist.Session.compact session with
      | Ok () -> ()
      | Error e ->
        Persist.Session.close session;
        Fmt.epr "seed: compaction after salvage failed: %s@."
          (Seed_error.to_string e);
        exit 2);
      Persist.Session.close session;
      Fmt.pr "salvage complete: %d objects live@." objects;
      (* damage worked around in either phase — repaired by fsck or
         absorbed on open — is still damage the caller should hear about *)
      if repaired || not (Store.recovery_clean r) then exit 1
  in
  Cmd.v
    (Cmd.info "salvage"
       ~doc:
         "Best-effort recovery of a damaged store: run every fsck repair \
          (truncate torn tails, excise quarantined journal regions, fall \
          back through snapshot generations), then reopen the database, \
          verify its consistency, and compact the survivors into a fresh \
          snapshot. Exits 0 when the store was already clean, 1 when \
          damage was found and worked around, 2 when the store cannot be \
          recovered.")
    Term.(const run $ dir_arg)

(* --- snapshot / versions / history ------------------------------------ *)

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p -> Ok ((if host = "" then "127.0.0.1" else host), p)
    | None -> Error (Printf.sprintf "invalid port in %S" s))
  | None -> (
    match int_of_string_opt s with
    | Some p -> Ok ("127.0.0.1", p)
    | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s))

let stats_cmd =
  let run dir server =
    match server with
    | Some addr -> (
      (* live occupancy — sessions, in-flight, held locks — only
         exists in a serving process, so it is asked over the wire *)
      match parse_hostport addr with
      | Error msg ->
        Fmt.epr "seed: %s@." msg;
        exit 1
      | Ok (host, port) -> (
        let client = Printf.sprintf "stats-%d" (Unix.getpid ()) in
        let cl = Seed_net.Net_client.connect_tcp ~client ~host ~port () in
        match Seed_net.Net_client.stats cl with
        | Ok s ->
          Seed_net.Net_client.close cl;
          Fmt.pr "%a@." Seed_net.Wire.pp_server_stats s
        | Error e ->
          Seed_net.Net_client.close cl;
          Fmt.epr "seed: %a@." Seed_net.Net_client.pp_error e;
          exit 1))
    | None -> (
      match dir with
      | Some dir ->
        with_session dir (fun db ->
            Fmt.pr "%a@." DB.pp_stats (DB.stats db);
            Ok ())
      | None ->
        Fmt.epr "seed: stats needs a DB directory or --server HOST:PORT@.";
        exit 1)
  in
  let dir_opt =
    Arg.(
      value & pos 0 (some dir) None & info [] ~docv:"DB" ~doc:"Database directory.")
  in
  let server =
    Arg.(
      value
      & opt (some string) None
      & info [ "server" ] ~docv:"HOST:PORT"
          ~doc:
            "Ask a running $(b,seed serve) instead: adds live occupancy \
             (sessions, in-flight requests, held locks) to the database \
             summary.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Database size and state summary — of a directory, or of a \
             running server with $(b,--server).")
    Term.(const run $ dir_opt $ server)

let snapshot_cmd =
  let run dir =
    with_session dir (fun db ->
        let open Seed_error in
        let* v = DB.create_version db in
        Fmt.pr "version %a created@." Version_id.pp v;
        Ok ())
  in
  Cmd.v
    (Cmd.info "snapshot" ~doc:"Save the current database state as a version.")
    Term.(const run $ dir_arg)

let versions_cmd =
  let run dir =
    with_session dir (fun db ->
        print_versions db;
        Ok ())
  in
  Cmd.v (Cmd.info "versions" ~doc:"List saved versions.") Term.(const run $ dir_arg)

let branch_cmd =
  let run dir version force =
    with_session dir (fun db ->
        let open Seed_error in
        let* v = Version_id.of_string version in
        let* () = DB.begin_alternative db ~from_:v ~force () in
        Fmt.pr "current version now based on %a@." Version_id.pp v;
        Ok ())
  in
  let version =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"VERSION")
  in
  let force =
    Arg.(value & flag & info [ "force"; "f" ] ~doc:"Discard unsaved changes.")
  in
  Cmd.v
    (Cmd.info "branch"
       ~doc:"Make a historical version the basis of the current version (an \
             alternative). The next snapshot opens a branch.")
    Term.(const run $ dir_arg $ version $ force)

let delete_version_cmd =
  let run dir version =
    with_session dir (fun db ->
        let open Seed_error in
        let* v = Version_id.of_string version in
        let* () = DB.delete_version db v in
        Fmt.pr "version %a deleted@." Version_id.pp v;
        Ok ())
  in
  let version =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"VERSION")
  in
  Cmd.v
    (Cmd.info "delete-version"
       ~doc:"Delete a leaf version (versions cannot be modified, except for \
             deletion).")
    Term.(const run $ dir_arg $ version)

let diff_cmd =
  let run dir v1 v2 =
    with_session dir (fun db ->
        let open Seed_error in
        let* v1 = Version_id.of_string v1 in
        let* v2 = Version_id.of_string v2 in
        let* changed = Seed_core.History.changed_between db v1 v2 in
        if changed = [] then Fmt.pr "versions are identical@."
        else
          List.iter
            (fun id ->
              let describe v =
                match Seed_core.History.state_in db id v with
                | Ok (Some (Seed_core.Item.Obj o)) ->
                  Printf.sprintf "%s%s%s"
                    o.Seed_core.Item.cls
                    (match o.Seed_core.Item.value with
                    | Some value -> " = " ^ Seed_schema.Value.to_string value
                    | None -> "")
                    (if o.Seed_core.Item.deleted then " (deleted)" else "")
                | Ok (Some (Seed_core.Item.Rel r)) ->
                  Printf.sprintf "%s%s" r.Seed_core.Item.assoc
                    (if r.Seed_core.Item.rel_deleted then " (deleted)" else "")
                | Ok None -> "(absent)"
                | Error _ -> "(?)"
              in
              let name =
                match DB.full_name db id with
                | Some n -> n
                | None -> Ident.to_string id
              in
              Fmt.pr "%s: %s  ->  %s@." name (describe v1) (describe v2))
            changed;
        Ok ())
  in
  let v1 = Arg.(required & pos 1 (some string) None & info [] ~docv:"FROM") in
  let v2 = Arg.(required & pos 2 (some string) None & info [] ~docv:"TO") in
  Cmd.v
    (Cmd.info "diff" ~doc:"Show the items whose state differs between two versions.")
    Term.(const run $ dir_arg $ v1 $ v2)

let history_cmd =
  let run dir name from_ =
    with_session dir (fun db ->
        let open Seed_error in
        let* from_ =
          match from_ with
          | None -> Ok None
          | Some s ->
            let* v = Version_id.of_string s in
            Ok (Some v)
        in
        let* entries = Seed_core.History.versions_of_object db name ?from_ () in
        List.iter (fun e -> Fmt.pr "%a@." Seed_core.History.pp_entry e) entries;
        Ok ())
  in
  let name_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME") in
  let from_ =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"VERSION"
          ~doc:"List versions beginning with this one.")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Find all versions of an object, optionally beginning with a \
             given version.")
    Term.(const run $ dir_arg $ name_arg $ from_)

(* --- shell -------------------------------------------------------------- *)

(* minimal tokenizer: whitespace-separated words, double quotes group *)
let split_words line =
  let n = String.length line in
  let words = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf
    end
  in
  let rec go i in_quotes =
    if i >= n then flush ()
    else
      match line.[i] with
      | '"' -> go (i + 1) (not in_quotes)
      | (' ' | '\t') when not in_quotes ->
        flush ();
        go (i + 1) false
      | c ->
        Buffer.add_char buf c;
        go (i + 1) in_quotes
  in
  go 0 false;
  List.rev !words

(* The update commands of [shell] and [connect]: each is one operation of
   the update language, which [shell] applies to its database and
   [connect] checks in. *)
let update_op : string list -> Protocol.op option = function
  | [ "add"; cls; name ] -> Some (Create_object { cls; name; pattern = false })
  | [ "add"; "-p"; cls; name ] ->
    Some (Create_object { cls; name; pattern = true })
  | [ "set"; path; text ] -> Some (Set_text { path; text })
  | [ "link"; assoc; a; b ] ->
    Some (Create_rel { assoc; endpoints = [ a; b ]; pattern = false })
  | [ "reclassify"; name; to_ ] -> Some (Reclassify_obj { name; to_ })
  | [ "inherit"; pattern; inheritor ] -> Some (Inherit { pattern; inheritor })
  | [ "delete"; path ] -> Some (Delete { path })
  | _ -> None

let update_help =
  "  add [-p] CLASS NAME         create an object (-p: a pattern)\n\
  \  set PATH VALUE              set a value, VALUE read for the type of\n\
  \                              its place (creates a missing sub-object;\n\
  \                              a multi-valued role takes an index: K[2])\n\
  \  link ASSOC FROM TO          relate two objects\n\
  \  reclassify NAME CLASS       move within the generalization hierarchy\n\
  \  inherit PATTERN NAME        NAME inherits PATTERN\n\
  \  delete PATH                 logical deletion\n"

let shell_help () =
  print_string
    ("commands:\n" ^ update_help
   ^ "  show [NAME]                 object tree(s)\n\
      \  report                      completeness findings\n\
      \  explain PRED...             planner access path for a predicate\n\
      \  search [PATH:]N [N...]      objects whose text contains every needle\n\
      \  stats                       database summary\n\
      \  snapshot                    save a version\n\
      \  versions                    list versions\n\
      \  select [VERSION]            choose the retrieval version\n\
      \  branch VERSION              rebase the current state\n\
      \  help                        this text\n\
      \  quit                        flush and exit\n")

let shell_cmd =
  let run dir =
    match Persist.Session.open_ ~dir () with
    | Error e -> exit_err e
    | Ok session ->
      warn_recovery session;
      let db = Persist.Session.db session in
      let report_result = function
        | Ok () -> ()
        | Error e -> Fmt.pr "error: %s@." (Seed_error.to_string e)
      in
      let running = ref true in
      while !running do
        print_string "seed> ";
        match In_channel.input_line stdin with
        | None -> running := false
        | Some line -> (
          match split_words line with
          | [] -> ()
          | [ "quit" ] | [ "exit" ] -> running := false
          | [ "help" ] -> shell_help ()
          | [ "show" ] -> report_result (print_show db None)
          | [ "show"; name ] -> report_result (print_show db (Some name))
          | [ "report" ] -> print_report db
          | "explain" :: tokens -> report_result (explain_pred db tokens)
          | [ "search" ] -> Fmt.pr "error: search needs at least one needle@."
          | "search" :: first :: rest ->
            let path, needle = split_needle first in
            let module Q = Seed_core.Query in
            let v = DB.view db in
            let hits = Q.select v (Q.matches path (needle :: rest)) in
            if hits = [] then Fmt.pr "no matches@."
            else
              List.iter
                (fun it ->
                  match Seed_core.View.full_name v it with
                  | Some n -> Fmt.pr "%s@." n
                  | None -> ())
                hits
          | [ "stats" ] -> Fmt.pr "%a@." DB.pp_stats (DB.stats db)
          | [ "snapshot" ] ->
            report_result
              (Result.map
                 (fun v -> Fmt.pr "version %a@." Version_id.pp v)
                 (DB.create_version db))
          | [ "versions" ] -> print_versions db
          | [ "select" ] -> report_result (DB.select_version db None)
          | [ "select"; v ] ->
            let open Seed_error in
            report_result
              (let* vid = Version_id.of_string v in
               DB.select_version db (Some vid))
          | [ "branch"; v ] ->
            let open Seed_error in
            report_result
              (let* vid = Version_id.of_string v in
               DB.begin_alternative db ~from_:vid ())
          | w :: _ as words -> (
            match update_op words with
            | Some op ->
              report_result (Result.map ignore (Protocol.apply db op))
            | None -> Fmt.pr "error: unknown command %s (try 'help')@." w))
      done;
      (match Persist.Session.flush session with
      | Ok () -> ()
      | Error e -> Fmt.epr "flush failed: %s@." (Seed_error.to_string e));
      Persist.Session.close session
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:"Interactive session against a database directory; changes are \
             flushed on exit.")
    Term.(const run $ dir_arg)

(* --- serve / connect ---------------------------------------------------- *)

let serve_cmd =
  let run dir host port ttl max_sessions =
    (* a check-in is acked only once its journal frame is fsync'd *)
    match Persist.Session.open_ ~dir ~sync:`Always_fsync () with
    | Error e -> exit_err e
    | Ok session ->
      warn_recovery session;
      let engine = Seed_server.Server.of_session session in
      let config = { Seed_net.Net_server.session_ttl = ttl; max_sessions } in
      let core = Seed_net.Net_server.create ~config engine in
      (match Seed_net.Net_server.serve ~host ~port core with
      | Error e ->
        Persist.Session.close session;
        exit_err e
      | Ok listener ->
        (* the exact line a supervisor (or a test) scrapes for the
           ephemeral port when started with --port 0 *)
        Fmt.pr "seed: serving %s on %s:%d (session ttl %gs)@." dir host
          (Seed_net.Net_server.port listener)
          ttl;
        let stop = ref false in
        let handler = Sys.Signal_handle (fun _ -> stop := true) in
        Sys.set_signal Sys.sigint handler;
        Sys.set_signal Sys.sigterm handler;
        while not !stop do
          Thread.delay 0.1
        done;
        Fmt.pr "seed: draining@.";
        Seed_net.Net_server.shutdown listener;
        (match Persist.Session.flush session with
        | Ok () -> ()
        | Error e ->
          Fmt.epr "seed: final flush failed: %s@." (Seed_error.to_string e));
        Persist.Session.close session;
        Fmt.pr "seed: stopped@.")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (default loopback).")
  in
  let port =
    Arg.(
      value & opt int 7464
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port (0 picks an ephemeral port, printed on startup).")
  in
  let ttl =
    Arg.(
      value & opt float 30.0
      & info [ "ttl" ] ~docv:"SECONDS"
          ~doc:
            "Session lease, restarted when each of the client's requests \
             ends: a client silent this long loses its session and all its \
             locks (locks have no lease of their own). A blocking checkout \
             waits at most this long.")
  in
  let max_sessions =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Admission cap; further clients get a retryable Busy.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a database directory to networked clients. Each session \
          holds a TTL lease, so a dead client's locks are freed with its \
          session; an acknowledged \
          check-in has been fsync'd to the journal; SIGINT/SIGTERM \
          drains gracefully (in-flight requests finish, queued clients get \
          a retryable error).")
    Term.(const run $ dir_arg $ host $ port $ ttl $ max_sessions)

let connect_help () =
  print_string
    ("commands:\n\
     \  checkout [-w SECS] NAME...  write-lock objects (optionally waiting);\n\
     \                              a successful check-in releases the locks\n\
     \  each update below is checked in as one operation:\n"
   ^ update_help
   ^ "  release                     drop locks without applying\n\
      \  find NAME                   class of an object, via a server snapshot\n\
      \  select CLASS                names of objects that are-a CLASS\n\
      \  search [PATH:]N [N...]      objects whose text contains every needle\n\
      \                              (trigram-indexed on the server)\n\
      \  stats                       server occupancy and database summary\n\
      \  ping                        round-trip check\n\
      \  help                        this text\n\
      \  quit                        free the session's locks and exit\n")

(* one REPL/script command against a connected client; false = the
   command failed (used for --exec exit status) *)
let connect_exec cl words =
  let module C = Seed_net.Net_client in
  let report = function
    | Ok () -> true
    | Error e ->
      Fmt.pr "error: %a@." C.pp_error e;
      false
  in
  match words with
  | [] -> true
  | [ "help" ] ->
    connect_help ();
    true
  | "checkout" :: "-w" :: secs :: names -> (
    match float_of_string_opt secs with
    | Some s when names <> [] ->
      report (C.checkout ~wait_timeout:s cl names)
    | _ ->
      Fmt.pr "error: usage: checkout -w SECS NAME...@.";
      false)
  | "checkout" :: (_ :: _ as names) -> report (C.checkout cl names)
  | [ "release" ] -> report (C.release cl)
  | [ "find"; name ] -> (
    match C.find cl name with
    | Ok (Some cls) ->
      Fmt.pr "%s : %s@." name cls;
      true
    | Ok None ->
      Fmt.pr "%s: not found@." name;
      true
    | Error e ->
      Fmt.pr "error: %a@." C.pp_error e;
      false)
  | [ "select"; cls ] -> (
    match C.select_isa cl cls with
    | Ok names ->
      List.iter (Fmt.pr "%s@.") names;
      true
    | Error e ->
      Fmt.pr "error: %a@." C.pp_error e;
      false)
  | "search" :: first :: rest -> (
    let path, needle = split_needle first in
    match C.search cl ~path (needle :: rest) with
    | Ok [] ->
      Fmt.pr "no matches@.";
      true
    | Ok names ->
      List.iter (Fmt.pr "%s@.") names;
      true
    | Error e ->
      Fmt.pr "error: %a@." C.pp_error e;
      false)
  | [ "stats" ] -> (
    match C.stats cl with
    | Ok s ->
      Fmt.pr "%a@." Seed_net.Wire.pp_server_stats s;
      true
    | Error e ->
      Fmt.pr "error: %a@." C.pp_error e;
      false)
  | [ "ping" ] -> (
    match C.ping cl with
    | Ok () ->
      Fmt.pr "pong@.";
      true
    | Error e ->
      Fmt.pr "error: %a@." C.pp_error e;
      false)
  | w :: _ -> (
    match update_op words with
    | Some op -> report (C.checkin cl [ op ])
    | None ->
      Fmt.pr "error: unknown command %s (try 'help')@." w;
      false)

let connect_cmd =
  let run addr client execs =
    match parse_hostport addr with
    | Error msg ->
      Fmt.epr "seed: %s@." msg;
      exit 1
    | Ok (host, port) ->
      let client =
        match client with
        | Some c -> c
        | None -> Printf.sprintf "cli-%d" (Unix.getpid ())
      in
      let cl = Seed_net.Net_client.connect_tcp ~client ~host ~port () in
      let status = ref 0 in
      if execs <> [] then
        (* script mode: each --exec is a ';'-separated command list *)
        List.iter
          (fun script ->
            List.iter
              (fun cmd ->
                if not (connect_exec cl (split_words cmd)) then status := 1)
              (String.split_on_char ';' script))
          execs
      else begin
        let running = ref true in
        while !running do
          Fmt.pr "%s@%s:%d> " client host port;
          Format.pp_print_flush Format.std_formatter ();
          match In_channel.input_line stdin with
          | None -> running := false
          | Some line -> (
            match split_words line with
            | [ "quit" ] | [ "exit" ] -> running := false
            | words -> ignore (connect_exec cl words))
        done
      end;
      Seed_net.Net_client.close cl;
      exit !status
  in
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HOST:PORT" ~doc:"A running $(b,seed serve).")
  in
  let client =
    Arg.(
      value
      & opt (some string) None
      & info [ "client"; "c" ] ~docv:"NAME"
          ~doc:"Lock-owner name (default cli-<pid>).")
  in
  let execs =
    Arg.(
      value & opt_all string []
      & info [ "exec"; "e" ] ~docv:"CMDS"
          ~doc:
            "Run this ';'-separated command list instead of the interactive \
             prompt; exits non-zero if any command fails. Repeatable.")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Connect to a $(b,seed serve). The client library reconnects with \
          exponential backoff, resumes its session inside the lease window \
          and replays lost requests idempotently.")
    Term.(const run $ addr $ client $ execs)

let main =
  Cmd.group
    (Cmd.info "seed" ~version:"1.0"
       ~doc:
         "A DBMS for software engineering applications based on the \
          entity-relationship approach (Glinz & Ludewig, ICDE 1986).")
    [
      init_cmd;
      schema_cmd;
      add_cmd;
      set_cmd;
      reclassify_cmd;
      link_cmd;
      show_cmd;
      select_cmd;
      explain_cmd;
      dot_cmd;
      export_cmd;
      import_cmd;
      report_cmd;
      fsck_cmd;
      salvage_cmd;
      stats_cmd;
      snapshot_cmd;
      versions_cmd;
      branch_cmd;
      delete_version_cmd;
      diff_cmd;
      history_cmd;
      shell_cmd;
      serve_cmd;
      connect_cmd;
    ]

let () = exit (Cmd.eval main)
