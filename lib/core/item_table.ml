open Seed_util

type t = {
  base : Item.t array;  (* ascending ids, never written once built *)
  first : int;  (* the id of [base.(0)]; 0 when the base is empty *)
  over : Item.t Ident.Map.t;  (* the items written since [base] was built *)
  nover : int;  (* cardinal of [over]: [Ident.Map.cardinal] is O(n) *)
  count : int;  (* the base's items plus the overlay's new ones *)
}

let of_base base =
  let first = if Array.length base = 0 then 0 else Ident.to_int base.(0).Item.id in
  { base; first; over = Ident.Map.empty; nover = 0; count = Array.length base }

let empty = of_base [||]
let count t = t.count
let id_at b k = Ident.to_int (Array.unsafe_get b k).Item.id

(* The base slot holding [id], -1 when none does. Ids ascend with no
   repeat, so slot [k] holds an id of at least [first + k]: [id] sits at
   most at [id - first], exactly there when no id between [first] and
   [id] is missing. *)
let slot t id =
  let b = t.base in
  let n = Array.length b in
  if n = 0 || id < t.first || id > id_at b (n - 1) then -1
  else
    let i = id - t.first in
    (* [i] is negative only when the subtraction overflowed *)
    if i >= 0 && i < n && id_at b i = id then i
    else
      let rec search lo hi =
        if lo > hi then -1
        else
          let mid = (lo + hi) lsr 1 in
          let m = id_at b mid in
          if m = id then mid else if m < id then search (mid + 1) hi else search lo (mid - 1)
      in
      search 0 (if i >= 0 && i < n then i else n - 1)

let in_base t id =
  let k = slot t (Ident.to_int id) in
  if k < 0 then Item.none else t.base.(k)

(* [add] refuses [Item.none], so an overlay miss is told by [==] *)
let get t id =
  let it = Ident.Map.find_or ~default:Item.none id t.over in
  if it == Item.none then in_base t id else it

let find t id =
  let it = get t id in
  if it == Item.none then None else Some it

(* The overlay's items and the base's it does not replace, merged in id
   order. *)
let iter f t =
  let b = t.base in
  let n = Array.length b and k = ref 0 in
  Ident.Map.iter
    (fun id it ->
      let id = Ident.to_int id in
      while !k < n && id_at b !k < id do
        f (Array.unsafe_get b !k);
        incr k
      done;
      if !k < n && id_at b !k = id then incr k;
      f it)
    t.over;
  for i = !k to n - 1 do
    f (Array.unsafe_get b i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun it -> acc := f !acc it) t;
  !acc

let map f t =
  if t.count = 0 then t
  else begin
    let a = ref [||] and k = ref 0 in
    iter
      (fun it ->
        let it = f it in
        if !k = 0 then a := Array.make t.count it else Array.unsafe_set !a !k it;
        incr k)
      t;
    of_base !a
  end

(* The overlay folds into a new base once it holds over 1/16 of the base
   (and 64 items): a larger share keeps more superseded items alive in
   the base and deepens the overlay, a smaller one copies the base more
   often. Each fold copies the base once, 16 words per write amortized. *)
let fold_share = 16
let fold_floor = 64

(* The overlay folded into a new base. An overlay item either replaces
   a base item or has an id past the base's last, as every write does
   when ids are handed out in ascending order: then the new base is the
   old one extended by the new items in one copy, with the replacements
   stored into their slots. Any other overlay takes the general merge. *)
let fold_overlay t =
  let b = t.base in
  let n = Array.length b in
  let last = if n = 0 then max_int else id_at b (n - 1) in
  let past = Ident.Map.fold (fun id _ k -> if Ident.to_int id > last then k + 1 else k) t.over 0 in
  if past <> t.count - n then map Fun.id t
  else begin
    let tail = ref [||] and k = ref 0 in
    Ident.Map.iter
      (fun id it ->
        if Ident.to_int id > last then begin
          if !k = 0 then tail := Array.make past it else Array.unsafe_set !tail !k it;
          incr k
        end)
      t.over;
    let a = Array.append b !tail in
    Ident.Map.iter
      (fun id it ->
        let i = Ident.to_int id in
        if i <= last then a.(slot t i) <- it)
      t.over;
    of_base a
  end

(* One walk of the overlay, which reports whether it held the id *)
let add t (it : Item.t) =
  if it == Item.none then invalid_arg "Item_table.add: Item.none";
  let id = it.Item.id and fresh = ref true in
  let over = Ident.Map.add_fresh fresh id it t.over in
  let fresh = !fresh in
  let t =
    {
      t with
      over;
      nover = t.nover + Bool.to_int fresh;
      count = t.count + Bool.to_int (fresh && slot t (Ident.to_int id) < 0);
    }
  in
  if t.nover > fold_floor && fold_share * t.nover > Array.length t.base then fold_overlay t
  else t

type builder = {
  mutable items : Item.t array;  (* allocated on the first push *)
  mutable n : int;
  mutable cap : int;  (* 0 once built *)
}

let builder cap = { items = [||]; n = 0; cap }

let push b (it : Item.t) =
  if b.n >= b.cap then invalid_arg "Item_table.push: builder full or spent";
  if b.n = 0 then b.items <- Array.make b.cap it
  else if id_at b.items (b.n - 1) >= Ident.to_int it.Item.id then
    invalid_arg "Item_table.push: ids out of order"
  else b.items.(b.n) <- it;
  b.n <- b.n + 1

let build b =
  let a = if b.n = Array.length b.items then b.items else Array.sub b.items 0 b.n in
  b.items <- [||];
  b.cap <- 0;
  of_base a
