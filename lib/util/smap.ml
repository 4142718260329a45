(* Persistent string-keyed maps, plus the id-set multimap operations the
   copy-on-write database root is built from. A map with [Ident.Set]
   values replaces the mutable per-class/per-association extent tables:
   adding or removing one member shares all untouched branches with the
   previous map, which is what makes a published root an O(1) snapshot.
   [member] is written once for either key type: the root's adjacency
   applies it to [Ident.Map]s. *)

include Map.Make (String)

let ids = function Some s -> s | None -> Ident.Set.empty

let member ~add id = function
  | None -> if add then Some (Ident.Set.singleton id) else None
  | Some s ->
    let s = if add then Ident.Set.add id s else Ident.Set.remove id s in
    if Ident.Set.is_empty s then None else Some s

let all_ids m = fold (fun _ s acc -> Ident.Set.fold List.cons s acc) m []
