open Seed_util
open Seed_error

type node = {
  vid : Version_id.t;
  parent : Version_id.t option;
  children_rev : Version_id.t list;
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
let create () = empty

let is_empty t = Version_id.Map.is_empty t.nodes
let mem t vid = Version_id.Map.mem vid t.nodes
let find t vid = Version_id.Map.find_opt vid t.nodes

let find_res t vid =
  match find t vid with
  | Some n -> Ok n
  | None -> fail (Unknown_version (Version_id.to_string vid))

let children n = List.rev n.children_rev
let has_children n = n.children_rev <> []

(* The ancestor chain is computed once at creation and stored in the
   node: parents are immutable and only leaves can be deleted (nobody's
   ancestor), so the chain stays valid for the node's whole lifetime —
   the purely functional replacement for the old per-version memo
   table. *)
let add_node t ~vid ~parent ~schema_rev =
  let ancestors =
    match parent with
    | None -> [ vid ]
    | Some p -> (
      match Version_id.Map.find_opt p t.nodes with
      | Some pn -> vid :: pn.ancestors
      | None -> assert false)
  in
  let node =
    {
      vid;
      parent;
      children_rev = [];
      seq = t.next_seq;
      schema_rev;
      next_branch = 1;
      ancestors;
    }
  in
  let nodes = Version_id.Map.add vid node t.nodes in
  let nodes =
    match parent with
    | None -> nodes
    | Some p ->
      Version_id.Map.update p
        (function
          | Some pn -> Some { pn with children_rev = vid :: pn.children_rev }
          | None -> assert false)
        nodes
  in
  (vid, { t with nodes; next_seq = t.next_seq + 1 })

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
    | [] -> None
    | v :: rest -> (
      match Item.stamp_at item v with
      | Some s -> Some s
      | None -> first item rest)
  in
  fun item -> if Item.history_is_empty item then None else first item chain

let delete t vid =
  let* n = find_res t vid in
  if has_children n then
    fail
      (Invalid_operation
         (Printf.sprintf "version %s has derived versions and cannot be deleted"
            (Version_id.to_string vid)))
  else begin
    let nodes = Version_id.Map.remove vid t.nodes in
    let nodes =
      match n.parent with
      | None -> nodes
      | Some p ->
        Version_id.Map.update p
          (function
            | Some pn ->
              Some
                {
                  pn with
                  children_rev =
                    List.filter
                      (fun c -> not (Version_id.equal c vid))
                      pn.children_rev;
                }
            | None -> None)
          nodes
    in
    (* the latest trunk version may be deleted; the trunk counter keeps
       counting upward so labels are never reused *)
    Ok { t with nodes }
  end

let all t =
  Version_id.Map.bindings t.nodes
  |> List.map snd
  |> List.sort (fun a b -> Int.compare a.seq b.seq)

let since t vid =
  match find t vid with
  | None -> []
  | Some n -> List.filter (fun m -> m.seq >= n.seq) (all t)

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

let restore ~trunk ~nodes =
  (* first pass: nodes without links; children and ancestor chains need
     every node present *)
  let next_seq, bare =
    List.fold_left
      (fun (next_seq, m) r ->
        let node =
          {
            vid = r.r_vid;
            parent = r.r_parent;
            children_rev = [];
            seq = r.r_seq;
            schema_rev = r.r_schema_rev;
            next_branch = r.r_next_branch;
            ancestors = [];
          }
        in
        (max next_seq (r.r_seq + 1), Version_id.Map.add r.r_vid node m))
      (1, Version_id.Map.empty)
      nodes
  in
  let children =
    Version_id.Map.fold
      (fun vid n acc ->
        match n.parent with
        | None -> acc
        | Some p ->
          Version_id.Map.update p
            (function None -> Some [ vid ] | Some l -> Some (vid :: l))
            acc)
      bare Version_id.Map.empty
  in
  (* ancestor chains: walk parents through [bare] (acyclic by
     construction of the dump) *)
  let rec chain vid =
    match Version_id.Map.find_opt vid bare with
    | None -> []
    | Some n -> (
      match n.parent with None -> [ vid ] | Some p -> vid :: chain p)
  in
  let nodes =
    Version_id.Map.mapi
      (fun vid n ->
        {
          n with
          ancestors = chain vid;
          children_rev =
            (match Version_id.Map.find_opt vid children with
            | Some l -> l
            | None -> []);
        })
      bare
  in
  { nodes; next_seq; trunk }
