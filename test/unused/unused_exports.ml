(* Exports of lib/**/*.mli that nothing outside their own module calls,
   found from what the compiler resolved.

   Usage: unused_exports.exe ROOT USER_DIR...

   ROOT is a dune build directory (`_build/default` for the repository,
   after `dune build @check`). Every `val` that a `.cmti` under ROOT/lib
   declares is matched, by the uid the compiler gave it, against the
   `.cmt` files under ROOT/lib, ROOT/test and each ROOT/USER_DIR. A
   value counts as used where
   - an identifier resolves to it;
   - a binding operator (`let*`, `and*`, ...) resolves to it;
   - its module is used whole: as a functor argument, an `include` or a
     packed first-class module.
   A unit's own uses do not count: the `.ml` and `.mli` uid counters of
   one unit collide, and a module calling itself is not a caller.

   A value no user calls is printed as `lib/x/y.mli: name`, with
   `(test only)` when only test/ calls it, unless
   ROOT/test/unused_exports.allow lists it as `<mli> <name>  # <reason>`.
   An allow-list entry that names no such value is printed as stale, a
   line that is not an entry or a comment as malformed. Exits 1 when
   anything is printed, 2 when ROOT/lib holds no `.cmti` or a directory
   to scan holds no `.cmt` (a missing or moved build tree). *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let rec files ext dir acc =
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then files ext path acc
        else if Filename.check_suffix name ext then path :: acc
        else acc)
      acc (Sys.readdir dir)

let unit_of : Shape.Uid.t -> string option = function
  | Item { comp_unit; _ } -> Some comp_unit
  | _ -> None

(* [(mli, name, uid)] for each value the interface itself declares
   (values an [include] brings in belong to another unit), with the names
   of nested modules' values qualified *)
let exports ~root cmti =
  let cmt = Cmt_format.read_cmt cmti in
  let unit = cmt.cmt_modname in
  let source =
    match cmt.cmt_sourcefile with
    | Some f -> Filename.basename f
    | None -> fail "%s: no source file recorded" cmti
  in
  (* [ROOT/lib/x/.lib.objs/byte/lib__Y.cmti] declares [lib/x/y.mli] *)
  let dir = Filename.dirname (Filename.dirname (Filename.dirname cmti)) in
  let prefix = String.length root + 1 in
  let mli =
    Filename.concat (String.sub dir prefix (String.length dir - prefix)) source
  in
  let rec values path acc (sg : Types.signature) =
    List.fold_left
      (fun acc (item : Types.signature_item) ->
        match item with
        | Sig_value (id, vd, _) when unit_of vd.val_uid = Some unit ->
            (mli, path ^ Ident.name id, vd.val_uid) :: acc
        | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
            values (path ^ Ident.name id ^ ".") acc sg
        | _ -> acc)
      acc sg
  in
  match cmt.cmt_annots with
  | Interface sg -> values "" [] sg.sig_type
  | _ -> fail "%s: not an interface" cmti

(* the uids of the other units' values that the implementation [cmt]
   uses, added to [used] *)
let scan used cmt_file =
  let cmt = Cmt_format.read_cmt cmt_file in
  let use uid =
    match unit_of uid with
    | Some u when u <> cmt.cmt_modname -> Shape.Uid.Tbl.replace used uid ()
    | _ -> ()
  in
  let rec of_type : Types.module_type -> unit = function
    | Mty_signature sg ->
        List.iter
          (fun (item : Types.signature_item) ->
            match item with
            | Sig_value (_, vd, _) -> use vd.val_uid
            | Sig_module (_, _, md, _, _) -> of_type md.md_type
            | _ -> ())
          sg
    | _ -> ()
  in
  let rec whole (me : Typedtree.module_expr) =
    of_type me.mod_type;
    match me.mod_desc with Tmod_constraint (me, _, _, _) -> whole me | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> use vd.val_uid
    | Texp_letop { let_; ands; _ } ->
        List.iter
          (fun (b : Typedtree.binding_op) -> use b.bop_op_val.val_uid)
          (let_ :: ands)
    | Texp_pack me -> whole me
    | _ -> ());
    super.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    super.module_expr it me
  in
  let structure_item it (si : Typedtree.structure_item) =
    (match si.str_desc with
    | Tstr_include { incl_mod; _ } -> whole incl_mod
    | _ -> ());
    super.structure_item it si
  in
  let it = { super with expr; module_expr; structure_item } in
  match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

(* the uids that the [.cmt] files under each of [dirs] use *)
let uses ~root dirs =
  let used = Shape.Uid.Tbl.create 4096 in
  List.iter
    (fun dir ->
      let path = Filename.concat root dir in
      match files ".cmt" path [] with
      | [] -> fail "%s: no .cmt files (run `dune build @check` first)" path
      | cmts -> List.iter (scan used) cmts)
    dirs;
  used

let allow_file = "test/unused_exports.allow"

(* the allow-list's [(mli, name)] entries; a line that is neither an
   entry with its reason nor a comment is printed, and sets [bad] *)
let allowed ~root bad =
  In_channel.with_open_text (Filename.concat root allow_file) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | [] -> None
         | word :: _ when word.[0] = '#' -> None
         | mli :: name :: "#" :: _ :: _ -> Some (mli, name)
         | _ ->
             bad := true;
             Printf.printf "%s: %s  (malformed: want <mli> <name>  # <reason>)\n"
               allow_file line;
             None)

let () =
  let root, user_dirs =
    match Array.to_list Sys.argv with
    | _ :: root :: dirs -> (root, dirs)
    | _ -> fail "usage: unused_exports.exe ROOT USER_DIR..."
  in
  let exports =
    match files ".cmti" (Filename.concat root "lib") [] with
    | [] -> fail "%s/lib: no .cmti files (run `dune build @check` first)" root
    | cmtis ->
        List.concat_map (exports ~root) cmtis
        |> List.sort (fun (m, n, _) (m', n', _) -> compare (m, n) (m', n'))
  in
  let users = uses ~root ("lib" :: user_dirs) in
  let tests = uses ~root [ "test" ] in
  let bad = ref false in
  let allowed = allowed ~root bad in
  let unused =
    List.filter (fun (_, _, uid) -> not (Shape.Uid.Tbl.mem users uid)) exports
  in
  List.iter
    (fun (mli, name, uid) ->
      if not (List.mem (mli, name) allowed) then begin
        bad := true;
        if Shape.Uid.Tbl.mem tests uid then
          Printf.printf "%s: %s  (test only)\n" mli name
        else Printf.printf "%s: %s\n" mli name
      end)
    unused;
  List.iter
    (fun (mli, name) ->
      if not (List.exists (fun (m, n, _) -> (m, n) = (mli, name)) unused)
      then begin
        bad := true;
        Printf.printf "%s: %s: %s  (stale: no longer unused)\n" allow_file mli
          name
      end)
    allowed;
  exit (if !bad then 1 else 0)
