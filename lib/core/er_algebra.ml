open Seed_util
open Seed_schema
open Seed_error

type row = Item.t list

type t = { arity : int; rows : row list }

let row_key row = List.map (fun (it : Item.t) -> Ident.to_int it.Item.id) row

let normalize rows =
  let module M = Map.Make (struct
    type t = int list

    let compare = compare
  end) in
  let m =
    List.fold_left (fun m row -> M.add (row_key row) row m) M.empty rows
  in
  List.map snd (M.bindings m)

let make arity rows = { arity; rows = normalize rows }

let arity t = t.arity
let rows t = t.rows
let cardinality t = List.length t.rows
let is_empty t = t.rows = []

let objects view ~cls =
  make 1 (List.map (fun it -> [ it ]) (Query.select view (Query.is_a cls)))

let relationship view ~assoc =
  let schema = View.schema view in
  let db = View.db view in
  let arity =
    match Schema.find_assoc schema assoc with
    | Some def -> Assoc_def.arity def
    | None -> 2
  in
  (* real and inherited relationships, deduplicated by (rel, endpoints) *)
  let seen = Hashtbl.create 64 in
  let rows = ref [] in
  List.iter
    (fun obj ->
      List.iter
        (fun (vr : View.vrel) ->
          match View.rel_state view vr.View.rel with
          | Some rs
            when Schema.assoc_is_a schema ~sub:rs.Item.assoc ~super:assoc ->
            let key =
              ( Ident.to_int vr.View.rel.Item.id,
                List.map Ident.to_int vr.View.endpoints )
            in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              let endpoint_items =
                List.filter_map (Db_state.find_item db) vr.View.endpoints
              in
              if
                List.length endpoint_items = List.length vr.View.endpoints
                && List.for_all (View.live_normal view) endpoint_items
              then rows := endpoint_items :: !rows
            end
          | Some _ | None -> ())
        (View.rels_v view obj))
    (View.all_objects view);
  make arity !rows

let of_rows ~arity rows =
  if List.exists (fun r -> List.length r <> arity) rows then
    invalid_arg "Er_algebra.of_rows: arity mismatch";
  make arity rows

let select t p = make t.arity (List.filter p t.rows)

let select_obj t ~col p =
  select t (fun row ->
      match List.nth_opt row col with Some it -> p it | None -> false)

let project t ~cols =
  if List.exists (fun c -> c < 0 || c >= t.arity) cols then
    invalid_arg "Er_algebra.project: column out of range";
  make (List.length cols)
    (List.map (fun row -> List.map (fun c -> List.nth row c) cols) t.rows)

let product a b =
  make (a.arity + b.arity)
    (List.concat_map (fun ra -> List.map (fun rb -> ra @ rb) b.rows) a.rows)

let join a i b j =
  if i < 0 || i >= a.arity then invalid_arg "Er_algebra.join: left column";
  if j < 0 || j >= b.arity then invalid_arg "Er_algebra.join: right column";
  let rows =
    List.concat_map
      (fun ra ->
        let key = (List.nth ra i).Item.id in
        List.filter_map
          (fun rb ->
            if Ident.equal (List.nth rb j).Item.id key then
              Some (ra @ List.filteri (fun k _ -> k <> j) rb)
            else None)
          b.rows)
      a.rows
  in
  make (a.arity + b.arity - 1) rows

let same_arity a b op =
  if a.arity <> b.arity then
    fail
      (Invalid_operation
         (Printf.sprintf "%s of relations with arity %d and %d" op a.arity
            b.arity))
  else Ok ()

let union a b =
  let* () = same_arity a b "union" in
  Ok (make a.arity (a.rows @ b.rows))

let inter a b =
  let* () = same_arity a b "intersection" in
  let keys = List.map row_key b.rows in
  Ok (make a.arity (List.filter (fun r -> List.mem (row_key r) keys) a.rows))

let diff a b =
  let* () = same_arity a b "difference" in
  let keys = List.map row_key b.rows in
  Ok
    (make a.arity
       (List.filter (fun r -> not (List.mem (row_key r) keys)) a.rows))

let column t i =
  if i < 0 || i >= t.arity then invalid_arg "Er_algebra.column";
  t.rows
  |> List.map (fun row -> List.nth row i)
  |> List.sort_uniq (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)

let names view t =
  List.map
    (List.map (fun (it : Item.t) ->
         match View.full_name view it with
         | Some n -> n
         | None -> Ident.to_string it.Item.id))
    t.rows
