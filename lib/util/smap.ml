(* Persistent string-keyed maps, plus the id-set multimap operations the
   copy-on-write database root is built from. A [Smap] with [Ident.Set]
   values replaces the mutable per-class/per-association extent tables:
   adding or removing one member shares all untouched branches with the
   previous map, which is what makes a published root an O(1) snapshot. *)

include Map.Make (String)

let set m k =
  match find_opt k m with Some s -> s | None -> Ident.Set.empty

let add_id m k id =
  update k
    (function
      | None -> Some (Ident.Set.singleton id)
      | Some s -> Some (Ident.Set.add id s))
    m

let remove_id m k id =
  update k
    (function
      | None -> None
      | Some s ->
        let s = Ident.Set.remove id s in
        if Ident.Set.is_empty s then None else Some s)
    m

let all_ids m = fold (fun _ s acc -> Ident.Set.fold List.cons s acc) m []
