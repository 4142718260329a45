(* Persistent ident-keyed id-set multimaps: the copy-on-write
   replacement for the mutable [Ident.Set.t ref Ident.Tbl.t] identity
   indexes (children, rels-of, inheritors). *)

type t = Ident.Set.t Ident.Map.t

let empty : t = Ident.Map.empty

let get (m : t) k =
  match Ident.Map.find_opt k m with Some s -> s | None -> Ident.Set.empty

let add (m : t) k id =
  Ident.Map.update k
    (function
      | None -> Some (Ident.Set.singleton id)
      | Some s -> Some (Ident.Set.add id s))
    m

let remove (m : t) k id =
  Ident.Map.update k
    (function
      | None -> None
      | Some s ->
        let s = Ident.Set.remove id s in
        if Ident.Set.is_empty s then None else Some s)
    m
