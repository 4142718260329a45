(* The seeded SPADES specification store and the request streams the
   clients send. Everything here is a pure function of the workload
   seed: the store the server opens, the requests, and the oracle's
   expected answers all come from the same model, which the clients
   keep up to date as their check-ins are acknowledged. *)

open Seed_util
open Seed_schema
module DB = Seed_core.Database
module P = Seed_server.Protocol

let ok = Seed_error.ok_exn
let schema = Spades_tool.Spec_model.schema

(* common words of the 12-word descriptions *)
let vocab =
  [|
    "the"; "module"; "reads"; "its"; "input"; "stream"; "and"; "writes";
    "a"; "checked"; "record"; "to"; "journal"; "before"; "commit"; "every";
    "alarm"; "handler"; "must"; "release"; "lease"; "within"; "bounded";
    "time"; "or"; "escalate"; "recovery"; "path"; "replays"; "pending";
    "groups"; "after"; "crash"; "version"; "views"; "stay"; "immutable";
    "while"; "branch"; "switch"; "rebuilds"; "extent"; "caches"; "operator";
    "confirms"; "each"; "step"; "manually";
  |]

(* planted phrases: [rare1.(k) ^ " " ^ rare2.(k)], words that occur
   nowhere else, each planted in exactly [plants_per_phrase] documents
   at every store size, so their hit sets are fixed and small *)
let rare1 =
  [|
    "azurite"; "bismuth"; "cinnabar"; "dolomite"; "epidote"; "fluorite";
    "garnet"; "hematite"; "ilmenite"; "jadeite"; "kyanite"; "lazulite";
    "malachite"; "nephrite"; "olivine"; "pyrite";
  |]

let rare2 =
  [|
    "lantern"; "quiver"; "zephyr"; "gondola"; "trellis"; "marimba";
    "sextant"; "bellows"; "carillon"; "dirigible"; "falconet"; "harpoon";
    "kayak"; "lorgnette"; "mandolin"; "obelisk";
  |]

let phrase k = rare1.(k) ^ " " ^ rare2.(k)
let plants_per_phrase = 8
let keyword_pool_size = 256
let max_keywords = 8 (* [Thing.Keywords] is 0..8 in the SPADES schema *)
let tail_updates = 24

type doc = {
  d_name : string;
  mutable cls : string;  (* Data | InputData | OutputData *)
  desc0 : string;  (* as first written to the store *)
  mutable desc : string;  (* after the acknowledged updates *)
  mutable keywords : string list;  (* sorted *)
  mutable linked : bool;  (* takes part in a Read or Write link *)
  planted : string;  (* kept on every rewrite; "" = none *)
}

type link = { assoc : string; l_doc : int; l_act : int }

type t = {
  seed : int;
  docs : doc array;
  actions : string array;
  links : link list;
  tail : (int * string) list;  (* description rewrites in the journal tail *)
  keyword_pool : string array;
  by_name : (string, string) Hashtbl.t;  (* name -> class, at generation *)
}

let doc_name i = Printf.sprintf "Doc%06d" i
let action_name j = Printf.sprintf "Act%05d" j

let pick rng a = a.(Random.State.int rng (Array.length a))

let sentence rng =
  String.concat " " (List.init 12 (fun _ -> pick rng vocab))

let with_planted planted s = if planted = "" then s else s ^ " " ^ planted
let rewrite rng (d : doc) = with_planted d.planted (sentence rng)

let keyword rng =
  "kw" ^ String.init 4 (fun _ -> Char.chr (97 + Random.State.int rng 26))

let make ~seed ~n_docs =
  let rng = Random.State.make [| seed; n_docs; 0x5eed |] in
  let keyword_pool = Array.init keyword_pool_size (fun _ -> keyword rng) in
  let n_actions = max 8 (n_docs / 100) in
  let actions = Array.init n_actions action_name in
  let planted = Array.make n_docs "" in
  Array.iteri
    (fun k _ ->
      let placed = ref 0 in
      while !placed < plants_per_phrase do
        let i = Random.State.int rng n_docs in
        if planted.(i) = "" then begin
          planted.(i) <- phrase k;
          incr placed
        end
      done)
    rare1;
  let docs =
    Array.init n_docs (fun i ->
        let u = Random.State.float rng 1.0 in
        let cls =
          if u < 0.01 then "OutputData"
          else if u < 0.61 then "InputData"
          else "Data"
        in
        let desc0 = with_planted planted.(i) (sentence rng) in
        let keywords =
          List.sort_uniq String.compare
            (List.init (Random.State.int rng 4) (fun _ -> pick rng keyword_pool))
        in
        {
          d_name = doc_name i;
          cls;
          desc0;
          desc = desc0;
          keywords;
          linked = false;
          planted = planted.(i);
        })
  in
  let links =
    List.concat
      (List.init n_docs (fun i ->
           let d = docs.(i) in
           let act () = Random.State.int rng n_actions in
           match d.cls with
           | "InputData" when Random.State.float rng 1.0 < 0.25 ->
             d.linked <- true;
             [ { assoc = "Read"; l_doc = i; l_act = act () } ]
           | "OutputData" when Random.State.float rng 1.0 < 0.5 ->
             d.linked <- true;
             [ { assoc = "Write"; l_doc = i; l_act = act () } ]
           | _ -> []))
  in
  let tail =
    List.init tail_updates (fun _ ->
        let i = Random.State.int rng n_docs in
        (i, rewrite rng docs.(i)))
  in
  List.iter (fun (i, s) -> docs.(i).desc <- s) tail;
  let by_name = Hashtbl.create (n_docs + n_actions) in
  Array.iter (fun d -> Hashtbl.replace by_name d.d_name d.cls) docs;
  Array.iter (fun a -> Hashtbl.replace by_name a "Action") actions;
  { seed; docs; actions; links; tail; keyword_pool; by_name }

(* --- writing the model into a database -------------------------------- *)

let str s = Some (Value.String s)

(* The initial state (before the journal tail), as one transaction. The
   text index is left off: the store does not persist it, whoever serves
   the database rebuilds it, and maintaining it row by row here would
   take most of the set-up time. *)
let populate m db =
  DB.set_text_index_enabled db false;
  ok
    (DB.with_transaction db (fun () ->
         let ids = Array.make (Array.length m.docs) (Ident.of_int 0) in
         let acts =
           Array.map
             (fun a -> ok (DB.create_object db ~cls:"Action" ~name:a ()))
             m.actions
         in
         Array.iteri
           (fun i d ->
             let id = ok (DB.create_object db ~cls:d.cls ~name:d.d_name ()) in
             ids.(i) <- id;
             ignore
               (ok
                  (DB.create_sub_object db ~parent:id ~role:"Description"
                     ?value:(str d.desc0) ()));
             List.iter
               (fun k ->
                 ignore
                   (ok
                      (DB.create_sub_object db ~parent:id ~role:"Keywords"
                         ?value:(str k) ())))
               d.keywords)
           m.docs;
         List.iter
           (fun l ->
             let r =
               ok
                 (DB.create_relationship db ~assoc:l.assoc
                    ~endpoints:[ ids.(l.l_doc); acts.(l.l_act) ]
                    ())
             in
             if l.assoc = "Write" then
               ok (DB.set_rel_attr db r "NumberOfWrites" (Some (Value.Int 1))))
           m.links;
         Ok ()))

let description_id db name =
  match DB.resolve db (name ^ ".Description") with
  | Some id -> id
  | None -> failwith ("no description on " ^ name)

(* The journal tail: each rewrite its own flushed transaction. *)
let write_tail m db ~flush =
  List.iter
    (fun (i, s) ->
      let d = m.docs.(i) in
      ok (DB.set_value db (description_id db d.d_name) (str s));
      ok (flush ()))
    m.tail

(* --- oracle expectations ---------------------------------------------- *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec eq i j = j = k || (s.[i + j] = sub.[j] && eq i (j + 1)) in
  let rec at i = i + k <= n && (eq i 0 || at (i + 1)) in
  at 0

let carriers path d =
  match path with
  | "" -> d.desc :: d.keywords
  | "Thing.Description" -> [ d.desc ]
  | "Thing.Keywords" -> d.keywords
  | _ -> []

let search_expect m ~path ~needles =
  Array.to_list m.docs
  |> List.filter (fun d ->
         List.exists
           (fun c -> List.for_all (contains c) needles)
           (carriers path d))
  |> List.map (fun d -> d.d_name)
  |> List.sort String.compare

let select_expect m cls =
  (if cls = "Action" then Array.to_list m.actions
   else
     Array.to_list m.docs
     |> List.filter (fun d -> d.cls = cls)
     |> List.map (fun d -> d.d_name))
  |> List.sort String.compare

(* --- requests ---------------------------------------------------------- *)

type read =
  | Find of string * string option  (* name, expected class *)
  | Select of string * string list  (* class, expected names *)
  | Search of string * string list * string list
      (* path, needles, expected names *)

type searches = {
  selective : read;  (* a planted phrase *)
  conjunctive : read;  (* its two words, which must share one carrier *)
  in_description : read;  (* one planted word, scoped to descriptions *)
  in_keywords : read;  (* one keyword, scoped to keywords *)
}

(* One set of searches per planted phrase, with their answers. Every
   answer survives the rewrites of edit and review, which keep the
   planted phrase and never touch keywords. (A rare needle paired with a
   common word is left out on purpose: the planner verifies the common
   needle's whole posting list, ~10 ms at 20k documents, which would
   swamp every other cost in browse.) *)
let search_pool m =
  let rng = Random.State.make [| m.seed; 0x5ea7c4 |] in
  let q path needles = Search (path, needles, search_expect m ~path ~needles) in
  Array.init (Array.length rare1) (fun k ->
      {
        selective = q "" [ phrase k ];
        conjunctive = q "" [ rare2.(k); rare1.(k) ];
        in_description = q "Thing.Description" [ rare2.(k) ];
        in_keywords = q "Thing.Keywords" [ pick rng m.keyword_pool ];
      })

let find_any rng m =
  let n = Array.length m.docs + Array.length m.actions in
  if Random.State.int rng 10 = 0 then
    Find (Printf.sprintf "Nod%06d" (Random.State.int rng 1_000_000), None)
  else
    let i = Random.State.int rng n in
    let name =
      if i < Array.length m.docs then m.docs.(i).d_name
      else m.actions.(i - Array.length m.docs)
    in
    Find (name, Hashtbl.find_opt m.by_name name)

let selects m =
  [| Select ("OutputData", select_expect m "OutputData");
     Select ("Action", select_expect m "Action") |]

(* --- check-in batches ------------------------------------------------- *)

type batch = { names : string list; ops : P.op list; commit : unit -> unit }
(* [commit] applies the batch to the model once it is acknowledged *)

type created = { c_name : string; c_desc : string; c_action : string }

(* One client's share of the store: documents and actions whose index is
   [client] modulo [clients], so two clients never contend for a lock. *)
type share = {
  model : t;
  rng : Random.State.t;
  my_docs : int array;
  my_actions : int array;
  client : int;
  mutable next_new : int;
  mutable created : created list;  (* acknowledged creations *)
}

let share m ~seed ~client ~clients =
  let mine n = Array.of_list (List.filter (fun i -> i mod clients = client) (List.init n Fun.id)) in
  {
    model = m;
    rng = Random.State.make [| seed; client; 0xc11e |];
    my_docs = mine (Array.length m.docs);
    my_actions = mine (Array.length m.actions);
    client;
    next_new = 0;
    created = [];
  }

let my_doc s = s.model.docs.(pick s.rng s.my_docs)

(* review: rewrite one document's description *)
let rewrite_batch s =
  let d = my_doc s in
  let v = rewrite s.rng d in
  {
    names = [ d.d_name ];
    ops = [ P.Set_value { path = d.d_name ^ ".Description"; value = str v } ];
    commit = (fun () -> d.desc <- v);
  }

(* edit: check out 1-3 objects (with an action when the batch creates a
   linked document), then 3-6 ops: description rewrites, new keywords, a
   new InputData document read by the action, an occasional reclassify *)
let edit_batch s =
  let rng = s.rng in
  let k = 1 + Random.State.int rng 3 in
  let with_action = k >= 2 && Random.State.bool rng in
  let n_docs = if with_action then k - 1 else k in
  let docs =
    List.sort_uniq (fun a b -> String.compare a.d_name b.d_name)
      (List.init n_docs (fun _ -> my_doc s))
  in
  let action =
    if with_action then Some s.model.actions.(pick rng s.my_actions) else None
  in
  let target = 3 + Random.State.int rng 4 in
  let ops = ref [] and commits = ref [] and n = ref 0 in
  let add op c =
    ops := op :: !ops;
    commits := c :: !commits;
    incr n
  in
  (match action with
  | None -> ()
  | Some a ->
    let name = Printf.sprintf "New%d_%06d" s.client s.next_new in
    s.next_new <- s.next_new + 1;
    let desc = sentence rng in
    add (P.Create_object { cls = "InputData"; name; pattern = false }) ignore;
    add (P.Create_sub { owner = name; role = "Description"; index = None; value = str desc }) ignore;
    add
      (P.Create_rel { assoc = "Read"; endpoints = [ name; a ]; pattern = false })
      (fun () -> s.created <- { c_name = name; c_desc = desc; c_action = a } :: s.created));
  let docs_a = Array.of_list docs in
  if Random.State.int rng 16 = 0 then begin
    let d = pick rng docs_a in
    if not d.linked then begin
      let to_ =
        pick rng
          (Array.of_list
             (List.filter (( <> ) d.cls) [ "Data"; "InputData"; "OutputData" ]))
      in
      add (P.Reclassify_obj { name = d.d_name; to_ }) (fun () -> d.cls <- to_)
    end
  end;
  (* keyword counts as this batch leaves them *)
  let pending = Hashtbl.create 4 in
  while !n < target do
    let d = pick rng docs_a in
    let extra = Option.value ~default:0 (Hashtbl.find_opt pending d.d_name) in
    if Random.State.int rng 10 < 3 && List.length d.keywords + extra < max_keywords
    then begin
      let kw = pick rng s.model.keyword_pool in
      Hashtbl.replace pending d.d_name (extra + 1);
      add
        (P.Create_sub { owner = d.d_name; role = "Keywords"; index = None; value = str kw })
        (fun () -> d.keywords <- List.merge String.compare [ kw ] d.keywords)
    end
    else begin
      let v = rewrite rng d in
      add (P.Set_value { path = d.d_name ^ ".Description"; value = str v })
        (fun () -> d.desc <- v)
    end
  done;
  let commits = List.rev !commits in
  {
    names = List.map (fun d -> d.d_name) docs @ Option.to_list action;
    ops = List.rev !ops;
    commit = (fun () -> List.iter (fun c -> c ()) commits);
  }

(* --- checking a reopened store against the model ---------------------- *)

let string_value db id =
  match DB.get_value db id with Some (Value.String s) -> Some s | _ -> None

(* Every document, every acknowledged creation: class, description,
   keywords and the Read link. Returns the mismatches found. *)
let verify_db m ~created db =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Array.iter
    (fun d ->
      match DB.find_object db d.d_name with
      | None -> bad "%s missing" d.d_name
      | Some id ->
        if DB.class_of db id <> Some d.cls then bad "%s: class differs" d.d_name;
        let subs role =
          List.filter (fun c -> DB.class_of db c = Some ("Thing." ^ role)) (DB.children db id)
          |> List.filter_map (string_value db)
          |> List.sort String.compare
        in
        if subs "Description" <> [ d.desc ] then bad "%s: description differs" d.d_name;
        if subs "Keywords" <> d.keywords then bad "%s: keywords differ" d.d_name)
    m.docs;
  List.iter
    (fun c ->
      match (DB.find_object db c.c_name, DB.find_object db c.c_action) with
      | Some id, Some act ->
        if DB.class_of db id <> Some "InputData" then bad "%s: class differs" c.c_name;
        (match DB.resolve db (c.c_name ^ ".Description") with
        | Some s when string_value db s = Some c.c_desc -> ()
        | _ -> bad "%s: description differs" c.c_name);
        if
          not
            (List.exists
               (fun r ->
                 DB.assoc_of db r = Some "Read"
                 && List.equal Ident.equal (DB.endpoints db r) [ id; act ])
               (DB.relationships db id))
        then bad "%s: Read link missing" c.c_name
      | _ -> bad "%s missing" c.c_name)
    created;
  List.rev !errs

(* name and value bytes of the live user data *)
let user_bytes db =
  let v = DB.view db in
  let module V = Seed_core.View in
  let rec value_bytes (it : Seed_core.Item.t) =
    (match DB.get_value db it.Seed_core.Item.id with
    | Some (Value.String s) -> String.length s
    | Some _ -> 8
    | None -> 0)
    + List.fold_left (fun acc c -> acc + value_bytes c) 0 (V.children v it.Seed_core.Item.id)
  in
  List.fold_left
    (fun acc it ->
      acc
      + (match V.full_name v it with Some n -> String.length n | None -> 0)
      + value_bytes it)
    0 (V.all_objects v)
