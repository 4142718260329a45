type t = int

let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
let to_string i = "#" ^ string_of_int i
let pp ppf i = Fmt.string ppf (to_string i)
let to_int i = i
let of_int i = i

module Gen = struct
  type t = { mutable last : int }

  let create () = { last = 0 }

  let next g =
    g.last <- g.last + 1;
    g.last

  let mark_used g id = if id > g.last then g.last <- id
  let current g = g.last
end

(* A big-endian Patricia tree (Okasaki & Gill, "Fast Mergeable Integer
   Maps", 1998) over chunks of 32 ids. An id's key is its integer with
   the sign bit flipped, so unsigned key order is [Int.compare] order;
   [key lsr 5] is its chunk (non-negative) and [key land 31] its bit in
   the chunk's leaf. [Tip (c, bits)] holds chunk [c]'s members, [bits]
   never 0; [Bin (p, m, l, r)] splits at bit [m] of the chunk (a power
   of two), [p] is the chunk bits above [m], [l] holds the chunks with
   [m] clear and [r] those with it set, neither empty. So the tree of a
   set is unique and structural equality is set equality. *)
module Set = struct
  type elt = int
  type t = Empty | Tip of int * int | Bin of int * int * t * t

  let chunk i = (i lxor min_int) lsr 5
  let bit i = 1 lsl (i land 31)

  (* the member at bit [b] (a power of two) of chunk [c] *)
  let de_bruijn =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23; 21; 19;
       16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

  let member c b =
    ((c lsl 5) lor de_bruijn.(((b * 0x077CB531) land 0xFFFFFFFF) lsr 27)) lxor min_int

  let highest_bit x =
    let x = x lor (x lsr 1) in
    let x = x lor (x lsr 2) in
    let x = x lor (x lsr 4) in
    let x = x lor (x lsr 8) in
    let x = x lor (x lsr 16) in
    let x = x lor (x lsr 32) in
    x lxor (x lsr 1)

  let mask c m = c land lnot (m lor (m - 1))
  let prefix = function Tip (c, _) | Bin (c, _, _, _) -> c | Empty -> 0

  (* [bin]'s branch over [s] and [t], of prefixes [ps] and [pt], whose
     chunks differ above both their branch bits *)
  let join_with bin ps s pt t =
    let m = highest_bit (ps lxor pt) in
    if ps land m = 0 then bin (mask ps m) m s t else bin (mask ps m) m t s

  let join s t = join_with (fun p m l r -> Bin (p, m, l, r)) (prefix s) s (prefix t) t

  let bin p m l r = match (l, r) with Empty, t | t, Empty -> t | _ -> Bin (p, m, l, r)
  let empty = Empty
  let is_empty t = t == Empty
  let singleton i = Tip (chunk i, bit i)

  let rec bits_of c = function
    | Empty -> 0
    | Tip (c', b) -> if c = c' then b else 0
    | Bin (p, m, l, r) ->
      if mask c m <> p then 0 else bits_of c (if c land m = 0 then l else r)

  let mem i t = bits_of (chunk i) t land bit i <> 0

  (* [t] with chunk [c]'s bits [b] added; [t] itself when it has them *)
  let rec add_bits c b t =
    match t with
    | Empty -> Tip (c, b)
    | Tip (c', b') ->
      if c <> c' then join (Tip (c, b)) t else if b' lor b = b' then t else Tip (c, b' lor b)
    | Bin (p, m, l, r) ->
      if mask c m <> p then join (Tip (c, b)) t
      else if c land m = 0 then
        let l' = add_bits c b l in
        if l' == l then t else Bin (p, m, l', r)
      else
        let r' = add_bits c b r in
        if r' == r then t else Bin (p, m, l, r')

  let add i t = add_bits (chunk i) (bit i) t

  let rec remove_bits c b t =
    match t with
    | Empty -> t
    | Tip (c', b') ->
      if c <> c' || b' land b = 0 then t
      else if b' land lnot b = 0 then Empty
      else Tip (c, b' land lnot b)
    | Bin (p, m, l, r) ->
      if mask c m <> p then t
      else if c land m = 0 then
        let l' = remove_bits c b l in
        if l' == l then t else bin p m l' r
      else
        let r' = remove_bits c b r in
        if r' == r then t else bin p m l r'

  let remove i t = remove_bits (chunk i) (bit i) t

  let rec union s t =
    match (s, t) with
    | Empty, u | u, Empty -> u
    | Tip (c, b), u | u, Tip (c, b) -> add_bits c b u
    | Bin (p, m, s0, s1), Bin (q, n, t0, t1) ->
      if m = n && p = q then Bin (p, m, union s0 t0, union s1 t1)
      else if m > n && mask q m = p then
        if q land m = 0 then Bin (p, m, union s0 t, s1) else Bin (p, m, s0, union s1 t)
      else if m < n && mask p n = q then
        if p land n = 0 then Bin (q, n, union s t0, t1) else Bin (q, n, t0, union s t1)
      else join s t

  let rec inter s t =
    match (s, t) with
    | Empty, _ | _, Empty -> Empty
    | Tip (c, b), u | u, Tip (c, b) ->
      let b = b land bits_of c u in
      if b = 0 then Empty else Tip (c, b)
    | Bin (p, m, s0, s1), Bin (q, n, t0, t1) ->
      if m = n && p = q then bin p m (inter s0 t0) (inter s1 t1)
      else if m > n && mask q m = p then inter (if q land m = 0 then s0 else s1) t
      else if m < n && mask p n = q then inter s (if p land n = 0 then t0 else t1)
      else Empty

  (* Each walk takes a leaf's members lowest bit first, [b land -b]. *)
  let rec fold_bits f c b acc =
    if b = 0 then acc
    else
      let low = b land -b in
      fold_bits f c (b lxor low) (f (member c low) acc)

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Tip (c, b) -> fold_bits f c b acc
    | Bin (_, _, l, r) -> fold f r (fold f l acc)

  let iter f t = fold (fun i () -> f i) t ()

  let rec exists_bits f c b =
    b <> 0
    &&
    let low = b land -b in
    f (member c low) || exists_bits f c (b lxor low)

  let rec exists f = function
    | Empty -> false
    | Tip (c, b) -> exists_bits f c b
    | Bin (_, _, l, r) -> exists f l || exists f r

  let elements t = List.rev (fold List.cons t [])

  let popcount b =
    let b = b - ((b lsr 1) land 0x55555555) in
    let b = (b land 0x33333333) + ((b lsr 2) land 0x33333333) in
    let b = (b + (b lsr 4)) land 0x0F0F0F0F in
    ((b * 0x01010101) land 0xFFFFFFFF) lsr 24

  let rec cardinal = function
    | Empty -> 0
    | Tip (_, b) -> popcount b
    | Bin (_, _, l, r) -> cardinal l + cardinal r

  (* The leaf being filled ([bits] = 0: none yet) and, newest first, the
     finished subtrees of the right spine: each differs from the one
     below it at a lower bit than that one from the one below it. *)
  type builder = { mutable chunk : int; mutable bits : int; mutable spine : t list }

  let builder () = { chunk = 0; bits = 0; spine = [] }

  (* Finish [t] before chunk [c]: join it with each spine tree that
     differs from it at a lower bit than [c] does. *)
  let rec settle c t = function
    | s :: rest when highest_bit (prefix s lxor prefix t) < highest_bit (prefix t lxor c) ->
      settle c (join s t) rest
    | spine -> t :: spine

  let push bl i =
    let c = chunk i in
    if bl.bits = 0 then bl.chunk <- c
    else if c <> bl.chunk then begin
      if c < bl.chunk then invalid_arg "Ident.Set.push: ids not ascending";
      bl.spine <- settle c (Tip (bl.chunk, bl.bits)) bl.spine;
      bl.chunk <- c;
      bl.bits <- 0
    end;
    bl.bits <- bl.bits lor bit i

  let build bl =
    if bl.bits = 0 then Empty
    else List.fold_left (fun t s -> join s t) (Tip (bl.chunk, bl.bits)) bl.spine
end

(* [Set]'s tree with values: [Tip (c, bits, vs)] binds chunk [c]'s ids
   whose bits are set in [bits], their values in [vs] in bit order, so
   bit [b]'s value is in slot [popcount (bits land (b - 1))] (Bagwell's
   bitmap-indexed nodes, "Ideal Hash Trees", 2001). Every walk
   is a top-level function of the key's chunk and bit: a local closure
   over the key would cost a block per call. *)
module Map = struct
  type key = t
  type 'a t = Empty | Tip of int * int * 'a array | Bin of int * int * 'a t * 'a t

  let chunk = Set.chunk and bit = Set.bit and mask = Set.mask
  let slot bits b = Set.popcount (bits land (b - 1))
  let prefix = function Tip (c, _, _) | Bin (c, _, _, _) -> c | Empty -> 0
  let join s t = Set.join_with (fun p m l r -> Bin (p, m, l, r)) (prefix s) s (prefix t) t
  let bin p m l r = match (l, r) with Empty, t | t, Empty -> t | _ -> Bin (p, m, l, r)
  let empty = Empty
  let is_empty t = t == Empty

  (* the tip of chunk [c], [Empty] when there is none *)
  let rec tip_of c = function
    | Empty -> Empty
    | Tip (c', _, _) as t -> if c = c' then t else Empty
    | Bin (p, m, l, r) -> if mask c m <> p then Empty else tip_of c (if c land m = 0 then l else r)

  let find_or ~default i t =
    match tip_of (chunk i) t with
    | Tip (_, bits, vs) when bits land bit i <> 0 -> Array.unsafe_get vs (slot bits (bit i))
    | _ -> default

  let mem i t = match tip_of (chunk i) t with Tip (_, bits, _) -> bits land bit i <> 0 | _ -> false

  let insert vs k v =
    let n = Array.length vs in
    let a = Array.make (n + 1) v in
    Array.blit vs 0 a 0 k;
    Array.blit vs k a (k + 1) (n - k);
    a

  let replace vs k v =
    let a = Array.copy vs in
    a.(k) <- v;
    a

  (* [t], which holds no binding of bit [b] of chunk [c] where the walk
     to it stopped, with that bit bound to [v] *)
  let graft c b v t =
    match t with
    | Tip (c', bits, vs) when c = c' -> Tip (c, bits lor b, insert vs (slot bits b) v)
    | Empty -> Tip (c, b, [| v |])
    | Tip _ | Bin _ -> join (Tip (c, b, [| v |])) t

  (* [t] with bit [b] of chunk [c] bound to [v], [t] itself when it is
     bound to [v] already; [fresh] cleared when it was bound *)
  let rec add_at fresh c b v t =
    match t with
    | Tip (c', bits, vs) when c = c' && bits land b <> 0 ->
      fresh := false;
      let k = slot bits b in
      if Array.unsafe_get vs k == v then t else Tip (c, bits, replace vs k v)
    | Bin (p, m, l, r) when mask c m = p ->
      if c land m = 0 then
        let l' = add_at fresh c b v l in
        if l' == l then t else Bin (p, m, l', r)
      else
        let r' = add_at fresh c b v r in
        if r' == r then t else Bin (p, m, l, r')
    | Empty | Tip _ | Bin _ -> graft c b v t

  let add_fresh fresh i v t =
    fresh := true;
    add_at fresh (chunk i) (bit i) v t

  let add i v t = add_fresh (ref true) i v t

  (* [t] with bit [b] of chunk [c] bound as [f] says of its binding *)
  let rec update_at c b f t =
    match t with
    | Tip (c', bits, vs) when c = c' && bits land b <> 0 -> (
      let k = slot bits b in
      match f (Some vs.(k)) with
      | Some v when v == vs.(k) -> t
      | Some v -> Tip (c, bits, replace vs k v)
      | None when bits = b -> Empty
      | None -> Tip (c, bits lxor b, Array.init (Array.length vs - 1) (fun j -> vs.(j + Bool.to_int (j >= k)))))
    | Bin (p, m, l, r) when mask c m = p ->
      if c land m = 0 then
        let l' = update_at c b f l in
        if l' == l then t else bin p m l' r
      else
        let r' = update_at c b f r in
        if r' == r then t else bin p m l r'
    | Empty | Tip _ | Bin _ -> ( match f None with None -> t | Some v -> graft c b v t)

  let update i f t = update_at (chunk i) (bit i) f t
  let remove i t = update_at (chunk i) (bit i) (fun _ -> None) t

  let rec fold_tip f c bits vs k acc =
    if bits = 0 then acc
    else
      let low = bits land -bits in
      fold_tip f c (bits lxor low) vs (k + 1) (f (Set.member c low) (Array.unsafe_get vs k) acc)

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Tip (c, bits, vs) -> fold_tip f c bits vs 0 acc
    | Bin (_, _, l, r) -> fold f r (fold f l acc)

  (* its own walk: [fold] through a closure, even one that captures
     nothing, costs a second indirect call per binding (about 60% more
     time than a direct walk over a 6,000-binding map) *)
  let rec iter_tip f c bits vs k =
    if bits <> 0 then begin
      let low = bits land -bits in
      f (Set.member c low) (Array.unsafe_get vs k);
      iter_tip f c (bits lxor low) vs (k + 1)
    end

  let rec iter f = function
    | Empty -> ()
    | Tip (c, bits, vs) -> iter_tip f c bits vs 0
    | Bin (_, _, l, r) ->
      iter f l;
      iter f r

  let cardinal t = fold (fun _ _ n -> n + 1) t 0
  let bindings t = List.rev (fold (fun i v acc -> (i, v) :: acc) t [])
end

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
