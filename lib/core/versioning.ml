open Seed_util
open Seed_error

type node = {
  vid : Version_id.t;
  parent : Version_id.t option;
  derived : int;
  seq : int;
  schema_rev : int;
  next_branch : int;
  ancestors : Version_id.t list;
}

type t = {
  nodes : node Version_id.Map.t;
  next_seq : int;
  trunk : int;
}

let empty = { nodes = Version_id.Map.empty; next_seq = 1; trunk = 0 }

let mem t vid = Version_id.Map.mem vid t.nodes
let find t vid = Version_id.Map.find_opt vid t.nodes

let find_res t vid =
  match find t vid with
  | Some n -> Ok n
  | None -> fail (Unknown_version (Version_id.to_string vid))

let count_derived delta p nodes =
  Version_id.Map.update p
    (Option.map (fun pn -> { pn with derived = pn.derived + delta }))
    nodes

(* Adds a leaf under [parent], which must be in [t] ([None] when it is
   not). The ancestor chain is computed once here and stored in the
   node: parents are immutable and only leaves can be deleted (nobody's
   ancestor), so the chain stays valid for the node's whole lifetime. *)
let attach t ~vid ~parent ~seq ~schema_rev ~next_branch =
  let ancestors =
    match parent with
    | None -> Some [ vid ]
    | Some p -> Option.map (fun pn -> vid :: pn.ancestors) (find t p)
  in
  Option.map
    (fun ancestors ->
      let node = { vid; parent; derived = 0; seq; schema_rev; next_branch; ancestors } in
      let nodes = Version_id.Map.add vid node t.nodes in
      let nodes = Option.fold ~none:nodes ~some:(fun p -> count_derived 1 p nodes) parent in
      { t with nodes; next_seq = max t.next_seq (seq + 1) })
    ancestors

let add_node t ~vid ~parent ~schema_rev =
  match attach t ~vid ~parent ~seq:t.next_seq ~schema_rev ~next_branch:1 with
  | Some t -> (vid, t)
  | None -> assert false

let derive t ~base ~schema_rev =
  match base with
  | None ->
    if t.trunk > 0 then
      fail (Invalid_operation "version tree: trunk exists but no base version")
    else
      Ok
        (add_node { t with trunk = 1 } ~vid:(Version_id.trunk 1) ~parent:None
           ~schema_rev)
  | Some b ->
    let* bn = find_res t b in
    if Version_id.is_trunk b && Version_id.major b = t.trunk then
      (* continuing the latest trunk version extends the trunk *)
      let t = { t with trunk = t.trunk + 1 } in
      Ok (add_node t ~vid:(Version_id.trunk t.trunk) ~parent:(Some b) ~schema_rev)
    else begin
      let vid = Version_id.child b bn.next_branch in
      let nodes =
        Version_id.Map.add b { bn with next_branch = bn.next_branch + 1 } t.nodes
      in
      let t = { t with nodes } in
      if mem t vid then fail (Duplicate_version (Version_id.to_string vid))
      else Ok (add_node t ~vid ~parent:(Some b) ~schema_rev)
    end

let ancestors t vid =
  match find t vid with
  | Some n -> n.ancestors
  | None -> []

let state_at t vid =
  (* not in the tree: only an exact stamp could answer *)
  let chain = match find t vid with None -> [ vid ] | Some n -> n.ancestors in
  let rec first item = function
    | [] -> Item.Absent
    | v :: rest -> (
      match Item.stamp_at item v with
      | Item.Absent -> first item rest
      | s -> s)
  in
  fun item -> if Item.history_is_empty item then Item.Absent else first item chain

let delete t vid =
  let* n = find_res t vid in
  if n.derived > 0 then
    fail
      (Invalid_operation
         (Printf.sprintf "version %s has derived versions and cannot be deleted"
            (Version_id.to_string vid)))
  else
    let nodes = Version_id.Map.remove vid t.nodes in
    let nodes = Option.fold ~none:nodes ~some:(fun p -> count_derived (-1) p nodes) n.parent in
    (* the latest trunk version may be deleted; the trunk counter keeps
       counting upward so labels are never reused *)
    Ok { t with nodes }

let all t =
  Version_id.Map.bindings t.nodes
  |> List.map snd
  |> List.sort (fun a b -> Int.compare a.seq b.seq)

type raw = {
  r_vid : Version_id.t;
  r_parent : Version_id.t option;
  r_seq : int;
  r_schema_rev : int;
  r_next_branch : int;
}

let dump t =
  ( t.trunk,
    List.map
      (fun n ->
        {
          r_vid = n.vid;
          r_parent = n.parent;
          r_seq = n.seq;
          r_schema_rev = n.schema_rev;
          r_next_branch = n.next_branch;
        })
      (all t) )

(* Every writer dumps in creation order, so a parent is always an
   earlier node: anything else — a self-parented node, a cycle — is a
   damaged tree, refused rather than followed. *)
let restore ~trunk ~nodes =
  List.fold_left
    (fun acc r ->
      let* t = acc in
      let corrupt why =
        fail (Corrupt (Printf.sprintf "version %s: %s" (Version_id.to_string r.r_vid) why))
      in
      if mem t r.r_vid then corrupt "listed twice"
      else
        match
          attach t ~vid:r.r_vid ~parent:r.r_parent ~seq:r.r_seq
            ~schema_rev:r.r_schema_rev ~next_branch:r.r_next_branch
        with
        | Some t -> Ok t
        | None -> corrupt "parent is not an earlier version")
    (Ok { empty with trunk })
    nodes
