open Seed_util

(* A trigram is 3 bytes packed into one int. A needle can only occur in
   a base document holding all its trigrams, so intersecting their
   postings bounds the base candidates; the overlay (carrier -> [Some]
   document, or [None] for a removed base document) overrides the base. *)

(* A document's signature sets one of 126 bits (two words) per trigram
   it holds, and a needle can only occur in a document whose signature
   covers the needle's: most overlay documents are rejected without
   reading their text. Documents built into the base set every bit. *)
type doc = { path : string; text : string; sig_lo : int; sig_hi : int }

type base = {
  ids : int array;  (* ascending carrier ids *)
  docs : doc array;  (* per slot *)
  grams : int array;  (* ascending distinct trigram codes *)
  posts : Bytes.t array;  (* per trigram: ascending base slots, packed *)
  slots : int;  (* total posting slots, for stats *)
}

type t = {
  base : base;
  over : doc option Ident.Map.t;
  nover : int;  (* cardinal of [over]: stdlib [Map.cardinal] is O(n) *)
  ndocs : int;  (* live documents — O(1) for the planner's cutoff *)
}

let doc_count t = t.ndocs
let min_needle = 3

let trigram s i =
  (Char.code (String.unsafe_get s i) lsl 16)
  lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
  lor Char.code (String.unsafe_get s (i + 2))

let signature texts =
  let lo = ref 0 and hi = ref 0 in
  let add s i =
    let bit = ((((trigram s i * 0x9E3779B1) lsr 16) land 0xFFFFFF) * 126) lsr 24 in
    if bit < 63 then lo := !lo lor (1 lsl bit) else hi := !hi lor (1 lsl (bit - 63))
  in
  List.iter (fun s -> for i = 0 to String.length s - 3 do add s i done) texts;
  (!lo, !hi)

let signed path text =
  let sig_lo, sig_hi = signature [ text ] in
  { path; text; sig_lo; sig_hi }

let unsigned path text = { path; text; sig_lo = -1; sig_hi = -1 }

(* A posting packs its slots as 32-bit ints: half the words of an [int
   array], and the collector never scans its contents. *)
let plen p = Bytes.length p lsr 2
let pget p i = Int32.to_int (Bytes.get_int32_le p (i lsl 2))
let pset p i v = Bytes.set_int32_le p (i lsl 2) (Int32.of_int v)

(* First index in posting [p]'s slots [lo, hi) holding a value >= [x]. *)
let rec lower_bound p x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if pget p mid < x then lower_bound p x (mid + 1) hi else lower_bound p x lo mid

(* The index of [x] in the ascending [a], or -1. *)
let find (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else -1

(* The builder's open-addressing table: cells of three ints — trigram
   code (< 2^24; -1 marks an empty cell), documents holding it, and the
   slot counted last (pass one) or the fill cursor (pass two). *)
type gtab = { mutable cells : int array; mutable used : int }

let rec probe cells code i mask =
  let k = Array.unsafe_get cells (3 * i) in
  if k = code || k < 0 then 3 * i else probe cells code ((i + 1) land mask) mask

let cell cells code =
  let mask = (Array.length cells / 3) - 1 in
  probe cells code (((code * 0x9E3779B1) lsr 12) land mask) mask

let grow g =
  let old = g.cells in
  g.cells <- Array.make (2 * Array.length old) (-1);
  for i = 0 to (Array.length old / 3) - 1 do
    if old.(3 * i) >= 0 then Array.blit old (3 * i) g.cells (cell g.cells old.(3 * i)) 3
  done

let count_doc g (slot : int) d =
  for i = 0 to String.length d.text - 3 do
    let code = trigram d.text i in
    let a = g.cells in
    let c = cell a code in
    if a.(c) < 0 then begin
      a.(c) <- code;
      a.(c + 1) <- 1;
      a.(c + 2) <- slot;
      g.used <- g.used + 1;
      if 2 * g.used > Array.length a / 3 then grow g
    end
    else if a.(c + 2) <> slot then begin
      a.(c + 1) <- a.(c + 1) + 1;
      a.(c + 2) <- slot
    end
  done

let fill_doc cells posts slot d =
  for i = 0 to String.length d.text - 3 do
    let c = cell cells (trigram d.text i) in
    let p = posts.(c / 3) and f = cells.(c + 2) in
    if f = 0 || pget p (f - 1) <> slot then begin
      pset p f slot;
      cells.(c + 2) <- f + 1
    end
  done

(* The base of [docs] at the ascending carriers [ids], in two passes. *)
let build ids docs =
  let g = { cells = Array.make (3 * 1024) (-1); used = 0 } in
  Array.iteri (count_doc g) docs;
  let a = g.cells in
  let posts =
    Array.init (Array.length a / 3) (fun i ->
        if a.(3 * i) < 0 then Bytes.empty
        else begin
          a.((3 * i) + 2) <- 0;
          Bytes.create (4 * a.((3 * i) + 1))
        end)
  in
  Array.iteri (fill_doc a posts) docs;
  let used = Seq.filter (fun i -> a.(3 * i) >= 0) (Seq.init (Array.length posts) Fun.id) in
  let used = Array.of_seq used in
  Array.sort (fun i j -> Int.compare a.(3 * i) a.(3 * j)) used;
  { ids; docs; grams = Array.map (fun i -> a.(3 * i)) used;
    posts = Array.map (fun i -> posts.(i)) used;
    slots = Array.fold_left (fun acc i -> acc + a.((3 * i) + 1)) 0 used }

let of_docs l =
  let a = Array.of_list l in
  let docs = Array.map (fun (_, path, text) -> unsigned path text) a in
  let base = build (Array.map (fun (id, _, _) -> Ident.to_int id) a) docs in
  { base; over = Ident.Map.empty; nover = 0; ndocs = Array.length a }

let empty = of_docs []

(* The live documents in ascending carrier order — base slots the
   overlay does not override, merged with its live entries — plus the
   new slot of each base slot (-1 when dropped), the ascending new slots
   of the overlay's documents, and the dropped base slots. *)
let live t =
  let b = t.base in
  let ids = Array.make t.ndocs 0 and docs = Array.make t.ndocs (unsigned "" "") in
  let remap = Array.make (Array.length b.ids) (-1) and fresh = ref [] and gone = ref [] in
  let k = ref 0 and j = ref 0 in
  let put id d =
    ids.(!k) <- id;
    docs.(!k) <- d;
    incr k
  in
  let base_below id =
    while !j < Array.length b.ids && b.ids.(!j) < id do
      remap.(!j) <- !k;
      put b.ids.(!j) b.docs.(!j);
      incr j
    done;
    if !j < Array.length b.ids && b.ids.(!j) = id then begin
      gone := !j :: !gone;
      incr j
    end
  in
  Ident.Map.iter
    (fun id e ->
      base_below (Ident.to_int id);
      Option.iter (fun d -> fresh := !k :: !fresh; put (Ident.to_int id) d) e)
    t.over;
  base_below max_int;
  (ids, docs, remap, Array.of_list (List.rev !fresh), Array.of_list !gone)

(* The [kept] slots of [bp] that [remap] keeps, renumbered, merged with
   the overlay build's slots [op] renumbered by [fresh]; all ascending. *)
let merge_posting (remap : int array) bp kept (fresh : int array) op =
  let no = plen op in
  let p = Bytes.create (4 * (kept + no)) and k = ref 0 and j = ref 0 in
  let next = ref (if no > 0 then fresh.(pget op 0) else max_int) in
  for i = 0 to plen bp - 1 do
    let r = remap.(pget bp i) in
    if r >= 0 then begin
      while !next < r do
        pset p !k !next;
        incr k;
        incr j;
        next := if !j < no then fresh.(pget op !j) else max_int
      done;
      pset p !k r;
      incr k
    end
  done;
  for m = !j to no - 1 do pset p (kept + m) fresh.(pget op m) done;
  p

(* Fold the overlay into a new base by merging, as inverted files merge
   their in-memory buffer: surviving base postings are renumbered, and
   only the overlay's documents and the dropped ones are read, by small
   builds of their own (the dropped build sizes the merged postings). *)
let fold t =
  let b = t.base in
  let ids, docs, remap, fresh, gone = live t in
  let o = build (Array.map (Array.get ids) fresh) (Array.map (Array.get docs) fresh) in
  let d = build [||] (Array.map (Array.get b.docs) gone) in
  let kept code bp =
    let x = find d.grams code in
    plen bp - if x < 0 then 0 else plen d.posts.(x)
  in
  let grams = ref [] and posts = ref [] in
  let rec go i j =
    let bc = if i < Array.length b.grams then b.grams.(i) else max_int in
    let oc = if j < Array.length o.grams then o.grams.(j) else max_int in
    let code = min bc oc in
    if code < max_int then begin
      let pick c k a = if c = code then a.(k) else Bytes.empty in
      let bp = pick bc i b.posts in
      let p = merge_posting remap bp (kept code bp) fresh (pick oc j o.posts) in
      if plen p > 0 then begin
        grams := code :: !grams;
        posts := p :: !posts
      end;
      go (if bc = code then i + 1 else i) (if oc = code then j + 1 else j)
    end
  in
  go 0 0;
  let posts = Array.of_list (List.rev !posts) in
  let slots = Array.fold_left (fun n p -> n + plen p) 0 posts in
  let base = { ids; docs; grams = Array.of_list (List.rev !grams); posts; slots } in
  { base; over = Ident.Map.empty; nover = 0; ndocs = t.ndocs }

(* The overlay folds into the base once it holds over 1/16 of the
   documents (and 256 entries): a larger share makes queries test more
   overlay documents, a smaller one folds more often (DESIGN.md §14). *)
let fold_share = 16
let fold_floor = 256

let current t id =
  match Ident.Map.find_opt id t.over with
  | Some e -> e
  | None ->
    let i = find t.base.ids (Ident.to_int id) in
    if i < 0 then None else Some t.base.docs.(i)

(* Set [id]'s overlay entry to [e]; [dn] is the change in documents. *)
let set_entry t id e dn =
  let had = Ident.Map.mem id t.over in
  let t =
    match e with
    | None when find t.base.ids (Ident.to_int id) < 0 ->
      { t with over = Ident.Map.remove id t.over; nover = t.nover - Bool.to_int had }
    | e ->
      { t with over = Ident.Map.add id e t.over; nover = t.nover + Bool.to_int (not had) }
  in
  let t = { t with ndocs = t.ndocs + dn } in
  if t.nover > max fold_floor (t.ndocs / fold_share) then fold t else t

let add_doc t id ~path s =
  match current t id with
  | Some d when d.path == path && d.text == s -> t
  | Some _ -> set_entry t id (Some (signed path s)) 0
  | None -> set_entry t id (Some (signed path s)) 1

let remove_doc t id =
  if Option.is_none (current t id) then t else set_entry t id None (-1)

type probe = { pr_trigrams : int; pr_postings : int; pr_candidates : int; pr_verified : int }

(* Allocation-free containment: find the needle's first byte, then
   compare the rest in place. *)
let rec matches_at hay needle i j n =
  j >= n
  || String.unsafe_get hay (i + j) = String.unsafe_get needle j
     && matches_at hay needle i (j + 1) n

let rec contains_from hay needle c0 i last n =
  i <= last
  && ((String.unsafe_get hay i = c0 && matches_at hay needle i 1 n)
     || contains_from hay needle c0 (i + 1) last n)

let string_contains hay needle =
  let n = String.length needle in
  n = 0
  || contains_from hay needle (String.unsafe_get needle 0) 0
       (String.length hay - n) n

(* The base postings of the needles' distinct trigrams, rarest first. *)
let needle_postings t fn needles =
  List.concat_map
    (fun n ->
      if String.length n < min_needle then
        invalid_arg ("Text_index." ^ fn ^ ": needle shorter than 3 bytes");
      List.init (String.length n - 2) (trigram n))
    needles
  |> List.sort_uniq Int.compare
  |> List.map (fun code ->
         let i = find t.base.grams code in
         if i < 0 then Bytes.empty else t.base.posts.(i))
  |> List.sort (fun a b -> Int.compare (plen a) (plen b))

let query_probe t ?path needles =
  if needles = [] then invalid_arg "Text_index.query: no needle";
  let postings = needle_postings t "query" needles in
  let rest = Array.of_list (List.tl postings) in
  let cursor = Array.make (Array.length rest) 0 in
  (* [slot] is in every other posting; cursors only move forward *)
  let rec in_rest slot k =
    k >= Array.length rest
    ||
    let a = rest.(k) in
    let c = lower_bound a slot cursor.(k) (plen a) in
    cursor.(k) <- c;
    c < plen a && pget a c = slot && in_rest slot (k + 1)
  in
  let candidates = ref 0 and hits = ref [] in
  let test id d =
    if (match path with None -> true | Some p -> String.equal p d.path) then begin
      incr candidates;
      if List.for_all (string_contains d.text) needles then hits := id :: !hits
    end
  in
  let rarest = List.hd postings in
  for i = 0 to plen rarest - 1 do
    let slot = pget rarest i in
    let id = Ident.of_int t.base.ids.(slot) in
    if in_rest slot 0 && not (Ident.Map.mem id t.over) then test id t.base.docs.(slot)
  done;
  let lo, hi = signature needles in
  Ident.Map.iter
    (fun id e ->
      match e with
      | Some d when d.sig_lo land lo = lo && d.sig_hi land hi = hi ->
        test id d
      | Some _ | None -> ())
    t.over;
  let verified = Ident.Set.of_list !hits in
  ( verified,
    {
      pr_trigrams = List.length postings;
      pr_postings = List.fold_left (fun acc p -> acc + plen p) 0 postings;
      pr_candidates = !candidates;
      pr_verified = Ident.Set.cardinal verified;
    } )

let query t ?path needles = fst (query_probe t ?path needles)

let estimate t needle =
  plen (List.hd (needle_postings t "estimate" [ needle ])) + t.nover

type stats = { trigrams : int; postings : int; docs : int; bytes : int }

let stats t =
  let b = t.base in
  let trigrams = Array.length b.grams in
  (* 4 bytes per posting slot, words per trigram, base doc and overlay node *)
  let words = (3 * trigrams) + (7 * Array.length b.ids) + (12 * t.nover) in
  { trigrams; postings = b.slots; docs = t.ndocs; bytes = (4 * b.slots) + (8 * words) }

let equal a b =
  let ia, da, _, _, _ = live a and ib, db, _, _, _ = live b in
  let same x y = String.equal x.path y.path && String.equal x.text y.text in
  ia = ib && Array.for_all2 same da db
