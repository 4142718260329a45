open Seed_util

(* A trigram is 3 bytes packed into one int. A needle can only occur in
   a document holding all its trigrams, so intersecting their postings
   bounds a tier's candidates.

   The documents sit in three layers, oldest first: the immutable
   [main] and [recent] tiers and the persistent overlay (carrier ->
   document). A carrier's newest entry shadows its older ones, and a
   removal that must shadow an older entry is a tombstone. The overlay
   folds into [recent] once it passes 1/16 of the documents, and
   [recent] merges into [main] once it passes 1/4 of main's entries: a
   fold rewrites the small tier, the big one is rewritten several times
   less often (geometric partitioning, DESIGN.md §14). *)

(* A document's signature sets one of 126 bits (two words) per trigram
   it holds, and a needle can only occur in a document whose signature
   covers the needle's: most overlay documents are rejected without
   reading their text. Only overlay documents carry one. *)
type doc = { path : string; text : string; sig_lo : int; sig_hi : int }

(* The removal of a carrier that an older layer holds: no trigrams, and
   it is told apart by physical equality. A tier marks the same removal
   with the path [gone], also compared by [==]. *)
let tomb = { path = String.make 1 '\000'; text = ""; sig_lo = 0; sig_hi = 0 }
let gone = tomb.path

(* A tier's documents are parallel arrays, one slot per entry. A
   posting holds the slots of one trigram in the smaller of two
   encodings (below); [counts] holds its number of slots. *)
type tier = {
  ids : int array;  (* ascending carrier ids *)
  paths : string array;  (* per slot; [recent]'s may be [gone] *)
  texts : string array;
  grams : int array;  (* ascending distinct trigram codes *)
  counts : int array;  (* per trigram: slots in its posting *)
  posts : Bytes.t array;  (* per trigram: its slots, encoded *)
}

type t = {
  main : tier;
  recent : tier;  (* empty after a tier merge *)
  over : doc Ident.Map.t;
  nover : int;  (* cardinal of [over]: [Ident.Map.cardinal] is O(n) *)
  ndocs : int;  (* live documents — O(1) for the planner's cutoff *)
}

let doc_count t = t.ndocs
let min_needle = 3

let trigram s i =
  (Char.code (String.unsafe_get s i) lsl 16)
  lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
  lor Char.code (String.unsafe_get s (i + 2))

(* set a trigram's signature bit, one of 126, in [lo] or [hi] *)
let sign lo hi code =
  let bit = ((((code * 0x9E3779B1) lsr 16) land 0xFFFFFF) * 126) lsr 24 in
  if bit < 63 then lo := !lo lor (1 lsl bit) else hi := !hi lor (1 lsl (bit - 63))

let signed path text =
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to String.length text - 3 do
    sign lo hi (trigram text i)
  done;
  { path; text; sig_lo = !lo; sig_hi = !hi }

(* A posting of a tier of [n] slots is whichever is smaller: a bitmap
   of (n + 7) / 8 bytes, slot [s] at bit [s land 7] of byte [s lsr 3],
   or the gaps between its ascending slots, the first taken from -1, as
   LEB128 varints. A tie goes to the bitmap, so a posting shorter than
   the bitmap is a varint list: its length tells the encoding. Neither
   is scanned by the collector. *)
let bitmap_bytes n = (n + 7) lsr 3
let is_bitmap p n = Bytes.length p = bitmap_bytes n
let rec gap_bytes g = if g < 0x80 then 1 else 1 + gap_bytes (g lsr 7)

let has_bit p s = Char.code (Bytes.unsafe_get p (s lsr 3)) land (1 lsl (s land 7)) <> 0

let set_bit p s =
  let i = s lsr 3 in
  Bytes.unsafe_set p i (Char.unsafe_chr (Char.code (Bytes.unsafe_get p i) lor (1 lsl (s land 7))))

(* Write gap [g] at [i]; the position after it. *)
let rec put p i g =
  if g < 0x80 then begin
    Bytes.unsafe_set p i (Char.unsafe_chr g);
    i + 1
  end
  else begin
    Bytes.unsafe_set p i (Char.unsafe_chr (g land 0x7F lor 0x80));
    put p (i + 1) (g lsr 7)
  end

(* the index of the lowest set bit of a byte *)
let low_bit =
  String.init 256 (fun b ->
      let rec go i = if i = 8 || b land (1 lsl i) <> 0 then i else go (i + 1) in
      Char.chr (go 0))

(* The first slot after [s] in bitmap [p], or [max_int]: the rest of
   [s]'s byte, then whole bytes, the lowest set bit by [low_bit]. *)
let next_bit p s =
  let s = s + 1 in
  let i = ref (s lsr 3) and len = Bytes.length p in
  let b = ref (if !i < len then Char.code (Bytes.unsafe_get p !i) land (0xFF lsl (s land 7)) else 0) in
  while !b = 0 && !i < len - 1 do
    incr i;
    b := Char.code (Bytes.unsafe_get p !i)
  done;
  if !b = 0 then max_int else (!i lsl 3) lor Char.code (String.unsafe_get low_bit !b)

(* Move cursor [k] of [c] — its byte position at [c.(k)], its slot at
   [c.(k + 1)] — past the next gap of list [p]. *)
let rec step p c k g shift =
  let b = Char.code (Bytes.unsafe_get p c.(k)) in
  c.(k) <- c.(k) + 1;
  let g = g lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then c.(k + 1) <- c.(k + 1) + g else step p c k g (shift + 7)

(* A cursor over a posting of a tier of [n] slots is two cells of an int
   array: a list's byte position, and the slot, -1 before the first and
   [max_int] past the last. It only moves forward. *)
let start c k =
  c.(k) <- 0;
  c.(k + 1) <- -1

let next p n c k =
  if is_bitmap p n then c.(k + 1) <- next_bit p c.(k + 1)
  else if c.(k) < Bytes.length p then step p c k 0 0
  else c.(k + 1) <- max_int

(* The first [len] slots of [a], ascending, encoded for a tier of [n]
   slots. *)
let encode a len n =
  let vb = ref 0 in
  for i = 0 to len - 1 do
    vb := !vb + gap_bytes (a.(i) - if i = 0 then -1 else a.(i - 1))
  done;
  if !vb < bitmap_bytes n then begin
    let p = Bytes.create !vb and at = ref 0 in
    for i = 0 to len - 1 do
      at := put p !at (a.(i) - if i = 0 then -1 else a.(i - 1))
    done;
    p
  end
  else begin
    let p = Bytes.make (bitmap_bytes n) '\000' in
    for i = 0 to len - 1 do
      set_bit p a.(i)
    done;
    p
  end

(* The index of [x] in the ascending [a], or -1. *)
let find (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else -1

(* The builder's open-addressing table: cells of four ints — trigram
   code (< 2^24; -1 marks an empty cell), documents holding it, the slot
   seen last, and the bytes of its varint gaps (pass one), then a list's
   write position or -1 for a bitmap (pass two). Pass one visits slots
   in order, so it sizes every posting exactly and pass two writes each
   once. *)
type gtab = { mutable cells : int array; mutable used : int }

let rec probe cells code i mask =
  let k = Array.unsafe_get cells (4 * i) in
  if k = code || k < 0 then 4 * i else probe cells code ((i + 1) land mask) mask

let cell cells code =
  let mask = (Array.length cells lsr 2) - 1 in
  probe cells code (((code * 0x9E3779B1) lsr 12) land mask) mask

let grow g =
  let old = g.cells in
  g.cells <- Array.make (2 * Array.length old) (-1);
  for i = 0 to (Array.length old / 4) - 1 do
    if old.(4 * i) >= 0 then Array.blit old (4 * i) g.cells (cell g.cells old.(4 * i)) 4
  done

(* The first two bytes of [text] start a rolling trigram code, which
   [roll] shifts one byte along: one byte read per trigram. *)
let rolling text =
  if String.length text < 3 then 0
  else (Char.code (String.unsafe_get text 0) lsl 8) lor Char.code (String.unsafe_get text 1)

let roll code text i = ((code lsl 8) lor Char.code (String.unsafe_get text i)) land 0xFFFFFF

(* Cell indexes come from [cell], so the cell accesses below are in
   bounds. *)
let count_doc g slot text =
  let code = ref (rolling text) in
  for i = 2 to String.length text - 1 do
    code := roll !code text i;
    let a = g.cells in
    let c = cell a !code in
    if Array.unsafe_get a c < 0 then begin
      a.(c) <- !code;
      a.(c + 1) <- 1;
      a.(c + 2) <- slot;
      a.(c + 3) <- gap_bytes (slot + 1);
      g.used <- g.used + 1;
      if 2 * g.used > Array.length a / 4 then grow g
    end
    else begin
      let last = Array.unsafe_get a (c + 2) in
      if last <> slot then begin
        Array.unsafe_set a (c + 1) (Array.unsafe_get a (c + 1) + 1);
        Array.unsafe_set a (c + 3) (Array.unsafe_get a (c + 3) + gap_bytes (slot - last));
        Array.unsafe_set a (c + 2) slot
      end
    end
  done

let fill_doc cells posts slot text =
  let code = ref (rolling text) in
  for i = 2 to String.length text - 1 do
    code := roll !code text i;
    let c = cell cells !code in
    let last = Array.unsafe_get cells (c + 2) in
    if last <> slot then begin
      let p = Array.unsafe_get posts (c lsr 2) and w = Array.unsafe_get cells (c + 3) in
      if w < 0 then set_bit p slot else Array.unsafe_set cells (c + 3) (put p w (slot - last));
      Array.unsafe_set cells (c + 2) slot
    end
  done

(* The tier of the documents [paths]/[texts] at the ascending carriers
   [ids], in two passes. *)
let build ids paths texts =
  let n = Array.length ids in
  let g = { cells = Array.make (4 * 1024) (-1); used = 0 } in
  Array.iteri (count_doc g) texts;
  let a = g.cells in
  let posts =
    Array.init (Array.length a / 4) (fun i ->
        if a.(4 * i) < 0 then Bytes.empty
        else begin
          let vb = a.((4 * i) + 3) and bytes = bitmap_bytes n in
          a.((4 * i) + 2) <- -1;
          a.((4 * i) + 3) <- (if vb < bytes then 0 else -1);
          if vb < bytes then Bytes.create vb else Bytes.make bytes '\000'
        end)
  in
  Array.iteri (fill_doc a posts) texts;
  let used = Array.make g.used 0 and k = ref 0 in
  for i = 0 to Array.length posts - 1 do
    if a.(4 * i) >= 0 then begin
      used.(!k) <- i;
      incr k
    end
  done;
  Array.sort (fun i j -> Int.compare a.(4 * i) a.(4 * j)) used;
  { ids; paths; texts; grams = Array.map (fun i -> a.(4 * i)) used;
    counts = Array.map (fun i -> a.((4 * i) + 1)) used; posts = Array.map (fun i -> posts.(i)) used }

let no_tier = { ids = [||]; paths = [||]; texts = [||]; grams = [||]; counts = [||]; posts = [||] }

let of_docs n iter =
  let ids = Array.make n 0 and paths = Array.make n gone and texts = Array.make n "" in
  let k = ref 0 in
  iter (fun id ~path s ->
      if !k = n then invalid_arg "Text_index.of_docs: more documents than counted";
      ids.(!k) <- Ident.to_int id;
      paths.(!k) <- path;
      texts.(!k) <- s;
      incr k);
  if !k < n then invalid_arg "Text_index.of_docs: fewer documents than counted";
  { main = build ids paths texts; recent = no_tier; over = Ident.Map.empty; nover = 0; ndocs = n }

let empty = of_docs 0 ignore

(* The new slots of the entries of [n] over those of the older [b], both
   ascending by carrier: a carrier of [n] replaces its entry in [b], and
   with [drop] (when [b] is the oldest layer) a tombstone goes too.
   Returns the entry count and the new slot of each slot of [b] and of
   [n], -1 where the entry is gone. *)
let renumber ~drop n b =
  let rb = Array.make (Array.length b.ids) (-1) and rn = Array.make (Array.length n.ids) (-1) in
  let k = ref 0 and i = ref 0 in
  let older_below id =
    while !i < Array.length b.ids && b.ids.(!i) < id do
      rb.(!i) <- !k;
      incr k;
      incr i
    done
  in
  Array.iteri
    (fun j id ->
      older_below id;
      if !i < Array.length b.ids && b.ids.(!i) = id then incr i;
      if not (drop && n.paths.(j) == gone) then begin
        rn.(j) <- !k;
        incr k
      end)
    n.ids;
  older_below max_int;
  (!k, rb, rn)

(* The entries of [n] over [b], placed by [renumber], as a tier without
   postings. *)
let entries (k, rb, rn) n b =
  let ids = Array.make k 0 and paths = Array.make k gone and texts = Array.make k "" in
  let place r src =
    Array.iteri
      (fun i s ->
        if s >= 0 then begin
          ids.(s) <- src.ids.(i);
          paths.(s) <- src.paths.(i);
          texts.(s) <- src.texts.(i)
        end)
      r
  in
  place rb b;
  place rn n;
  { no_tier with ids; paths; texts }

(* Into [dst] from 0, each slot of posting [p] (of a tier of [n]
   slots) through the map [r], dropping those it maps to -1; returns
   their count. A bitmap's set bits are taken lowest first, each cleared
   by [b land (b - 1)]. *)
let decode p n r dst =
  let o = ref 0 in
  if is_bitmap p n then
    for i = 0 to Bytes.length p - 1 do
      let b = ref (Char.code (Bytes.unsafe_get p i)) in
      while !b <> 0 do
        let s = r.((i lsl 3) lor Char.code (String.unsafe_get low_bit !b)) in
        if s >= 0 then begin
          dst.(!o) <- s;
          incr o
        end;
        b := !b land (!b - 1)
      done
    done
  else begin
    let c = [| 0; -1 |] in
    while c.(0) < Bytes.length p do
      step p c 0 0 0;
      let s = r.(c.(1)) in
      if s >= 0 then begin
        dst.(!o) <- s;
        incr o
      end
    done
  end;
  !o

(* Into [scratch], the slots of [bp] (of [b]'s [nb]) that [rb] keeps
   merged with those of [np] (of [n]'s [nn]), each renumbered by its
   tier's map; all ascending. [bp]'s are decoded into [scratch], [np]'s
   into [sn], and the two merged from the back. Returns the merged
   length. *)
let merge_posting scratch sn rb bp nb rn np nn =
  let a = decode bp nb rb scratch and c = decode np nn rn sn in
  let i = ref (a - 1) and j = ref (c - 1) in
  while !j >= 0 do
    if !i >= 0 && scratch.(!i) > sn.(!j) then begin
      scratch.(!i + !j + 1) <- scratch.(!i);
      decr i
    end
    else begin
      scratch.(!i + !j + 1) <- sn.(!j);
      decr j
    end
  done;
  a + c

(* The tier of [n]'s entries over the older [b]'s: the one merge behind
   a fold and a tier merge, as inverted files merge a buffer into the
   main index. It reads no text: each posting of [b] is renumbered,
   shadowed slots skipped, and merged with [n]'s in scratch arrays
   reused for every trigram, then encoded at its exact size. Tombstones
   carry no postings. *)
let merge ~drop n b =
  (* a fold into an empty [recent] keeps the overlay's build *)
  if Array.length b.ids = 0 && not drop then n
  else begin
    let ((k, rb, rn) as slots) = renumber ~drop n b in
    let e = entries slots n b in
    let nb = Array.length b.ids and nn = Array.length n.ids in
    let scratch = Array.make k 0 and sn = Array.make nn 0 in
    let most = Array.length b.grams + Array.length n.grams in
    let grams = Array.make most 0 and counts = Array.make most 0 in
    let posts = Array.make most Bytes.empty in
    let rec go i j g =
      let bc = if i < Array.length b.grams then b.grams.(i) else max_int in
      let nc = if j < Array.length n.grams then n.grams.(j) else max_int in
      let code = min bc nc in
      if code = max_int then g
      else begin
        let bp = if bc = code then b.posts.(i) else Bytes.empty in
        let np = if nc = code then n.posts.(j) else Bytes.empty in
        let len = merge_posting scratch sn rb bp nb rn np nn in
        if len > 0 then begin
          grams.(g) <- code;
          counts.(g) <- len;
          posts.(g) <- encode scratch len k
        end;
        go (if bc = code then i + 1 else i) (if nc = code then j + 1 else j) (g + Bool.to_int (len > 0))
      end
    in
    let g = go 0 0 0 in
    { e with grams = Array.sub grams 0 g; counts = Array.sub counts 0 g; posts = Array.sub posts 0 g }
  end

(* The overlay's entries as a tier without postings. *)
let overlay t =
  let ids = Array.make t.nover 0 and paths = Array.make t.nover gone in
  let texts = Array.make t.nover "" and k = ref 0 in
  Ident.Map.iter
    (fun id d ->
      ids.(!k) <- Ident.to_int id;
      paths.(!k) <- d.path;
      texts.(!k) <- d.text;
      incr k)
    t.over;
  { no_tier with ids; paths; texts }

(* The overlay folds into [recent] once it holds over 1/16 of the
   documents (and 256 entries): a larger share makes queries test more
   overlay documents, a smaller one folds more often. [recent] merges
   into [main] once it holds over 1/4 of main's entries: a larger share
   walks a larger second tier, a smaller one rewrites [main] more often
   (DESIGN.md §14). *)
let fold_share = 16
let fold_floor = 256
let tier_share = 4

let fold t =
  let o = overlay t in
  let recent = merge ~drop:false (build o.ids o.paths o.texts) t.recent in
  let t = { t with over = Ident.Map.empty; nover = 0 } in
  if tier_share * Array.length recent.ids > Array.length t.main.ids then
    { t with main = merge ~drop:true recent t.main; recent = no_tier }
  else { t with recent }

(* What [id]'s newest entry is, its path and text compared in place with
   [path] and [text]: [Absent] (no layer holds it, or a tombstone),
   [Same] (physically these) or [Other]. *)
type held = Absent | Same | Other

let held p x path text = if p == gone then Absent else if p == path && x == text then Same else Other

(* the overlay's miss in [newest]: a document no layer holds *)
let unheld = { tomb with path = "" }

let newest t id path text =
  let d = Ident.Map.find_or ~default:unheld id t.over in
  if d != unheld then held d.path d.text path text
  else
    let i = find t.recent.ids (Ident.to_int id) in
    if i >= 0 then held t.recent.paths.(i) t.recent.texts.(i) path text
    else
      let i = find t.main.ids (Ident.to_int id) in
      if i < 0 then Absent else held t.main.paths.(i) t.main.texts.(i) path text

(* Set [id]'s overlay entry to [d]; [dn] is the change in documents. A
   tombstone shadowing no tier entry is no entry at all. One record is
   built: this runs on every indexed update. *)
let set_entry t id d dn =
  let i = Ident.to_int id and ndocs = t.ndocs + dn in
  let t =
    if d == tomb && find t.recent.ids i < 0 && find t.main.ids i < 0 then
      let over = Ident.Map.remove id t.over in
      { t with over; nover = t.nover - Bool.to_int (over != t.over); ndocs }
    else
      let fresh = ref true in
      let over = Ident.Map.add_fresh fresh id d t.over in
      { t with over; nover = t.nover + Bool.to_int !fresh; ndocs }
  in
  if t.nover > max fold_floor (t.ndocs / fold_share) then fold t else t

let add_doc t id ~path s =
  match newest t id path s with
  | Same -> t
  | Absent -> set_entry t id (signed path s) 1
  | Other -> set_entry t id (signed path s) 0

let remove_doc t id =
  match newest t id gone "" with Absent -> t | Same | Other -> set_entry t id tomb (-1)

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

let rec contains_all hay = function
  | [] -> true
  | n :: ns -> string_contains hay n && contains_all hay ns

(* A lookup's distinct trigrams, rarest first, three ints each: the
   trigram's code and the index of its posting in [main] and in
   [recent], -1 where the tier lacks it. *)
type lookup = { needle : string; grams : int array }

let needle l = l.needle
let ngrams g = Array.length g / 3
let code g k = g.(3 * k)
let at main g k = g.((3 * k) + if main then 1 else 2)
let count (tier : tier) i = if i < 0 then 0 else tier.counts.(i)
let gram_len t g k = count t.main (at true g k) + count t.recent (at false g k)

(* The distinct codes of [codes], which it reorders, as lookup grams:
   looked up once per tier in code order, then each gram's postings
   keyed above its index there (under 2^24, as the codes are 24-bit), so
   one int sort puts the rarest first, ties in code order; the cells
   past the distinct codes are keyed [max_int], to sort last. *)
let grams_of t codes =
  let len = Array.length codes and d = ref 0 in
  Array_sort.sort Int.compare codes;
  for i = 0 to len - 1 do
    if !d = 0 || codes.(!d - 1) <> codes.(i) then begin
      codes.(!d) <- codes.(i);
      incr d
    end
  done;
  let g = Array.make (3 * !d) 0 in
  for k = 0 to !d - 1 do
    g.(3 * k) <- codes.(k);
    g.((3 * k) + 1) <- find t.main.grams codes.(k);
    g.((3 * k) + 2) <- find t.recent.grams codes.(k)
  done;
  for k = 0 to len - 1 do
    codes.(k) <- (if k < !d then (gram_len t g k lsl 24) lor k else max_int)
  done;
  Array_sort.sort Int.compare codes;
  let out = Array.make (3 * !d) 0 in
  for k = 0 to !d - 1 do
    Array.blit g (3 * (codes.(k) land 0xFFFFFF)) out (3 * k) 3
  done;
  out

let lookup t n =
  if String.length n < min_needle then
    invalid_arg "Text_index.lookup: needle shorter than 3 bytes";
  let codes = Array.make (String.length n - 2) 0 in
  for i = 0 to String.length n - 3 do
    codes.(i) <- trigram n i
  done;
  { needle = n; grams = grams_of t codes }

let estimate t l = gram_len t l.grams 0 + t.nover

(* the lookups' distinct trigrams, rarest first: one needle's are
   already *)
let union_grams t = function
  | [ l ] -> l.grams
  | ls ->
    let codes = Array.make (List.fold_left (fun n l -> n + ngrams l.grams) 0 ls) 0 in
    let k = ref 0 in
    List.iter
      (fun l ->
        for j = 0 to ngrams l.grams - 1 do
          codes.(!k) <- code l.grams j;
          incr k
        done)
      ls;
    grams_of t codes

(* Every one of the [ng] [grams] from [k] on has a posting in the
   tier. *)
let rec all_held main grams ng k =
  k >= ng || (at main grams k >= 0 && all_held main grams ng (k + 1))

(* [slot] of [tier] is in the postings of the [ng] [grams] from [k] on:
   a bitmap is tested in place, a list read forward by cursor [2 k] of
   [c]. *)
let rec in_rest tier main grams ng c slot k =
  k >= ng
  ||
  let p = tier.posts.(at main grams k) and n = Array.length tier.ids in
  (if is_bitmap p n then has_bit p slot
   else begin
     while c.((2 * k) + 1) < slot do
       next p n c (2 * k)
     done;
     c.((2 * k) + 1) = slot
   end)
  && in_rest tier main grams ng c slot (k + 1)

(* Test each slot of [tier]'s posting of the rarest of [grams] that
   [in_rest] finds in every other and that no newer layer shadows: the
   overlay, or [newer]. A tier lacking a needle trigram holds no
   answer. *)
let walk over newer tier main grams c test =
  let ng = ngrams grams in
  if all_held main grams ng 0 then begin
    for k = 0 to ng - 1 do
      start c (2 * k)
    done;
    let p = tier.posts.(at main grams 0) and n = Array.length tier.ids in
    next p n c 0;
    while c.(1) < max_int do
      let slot = c.(1) in
      let id = tier.ids.(slot) in
      if in_rest tier main grams ng c slot 1 && find newer.ids id < 0
         && not (Ident.Map.mem (Ident.of_int id) over)
      then test (Ident.of_int id) tier.paths.(slot) tier.texts.(slot);
      next p n c 0
    done
  end

let rec contains_needles hay = function
  | [] -> true
  | l :: ls -> string_contains hay l.needle && contains_needles hay ls

let query_probe t ~path lookups f =
  if lookups = [] then invalid_arg "Text_index.query_probe: no needle";
  let grams = union_grams t lookups in
  let c = Array.make (2 * ngrams grams) 0 in
  let candidates = ref 0 and verified = ref 0 in
  let test id p text =
    if String.equal path "" || String.equal path p then begin
      incr candidates;
      if contains_needles text lookups then begin
        incr verified;
        f id
      end
    end
  in
  walk t.over t.recent t.main true grams c test;
  if Array.length t.recent.ids > 0 then walk t.over no_tier t.recent false grams c test;
  if not (Ident.Map.is_empty t.over) then begin
    let lo = ref 0 and hi = ref 0 in
    for k = 0 to ngrams grams - 1 do
      sign lo hi (code grams k)
    done;
    let lo = !lo and hi = !hi in
    Ident.Map.iter
      (fun id d ->
        if d != tomb && d.sig_lo land lo = lo && d.sig_hi land hi = hi then test id d.path d.text)
      t.over
  end;
  let postings = ref 0 in
  for k = 0 to ngrams grams - 1 do
    postings := !postings + gram_len t grams k
  done;
  { pr_trigrams = ngrams grams; pr_postings = !postings; pr_candidates = !candidates;
    pr_verified = !verified }

type stats = { trigrams : int; postings : int; docs : int; bytes : int; tiers : int }

(* distinct values of two ascending arrays *)
let union_count a b =
  let rec go i j n =
    if i = Array.length a then n + Array.length b - j
    else if j = Array.length b then n + Array.length a - i
    else
      let c = Int.compare a.(i) b.(j) in
      go (if c <= 0 then i + 1 else i) (if c >= 0 then j + 1 else j) (n + 1)
  in
  go 0 0 0

(* The bytes of a tier as laid out: its six arrays (a header word
   each), three words per slot, three per trigram, and each posting's
   bytes with its header and padding. *)
let tier_bytes r =
  let posts = Array.fold_left (fun acc p -> acc + 8 * (2 + (Bytes.length p / 8))) 0 r.posts in
  (8 * (6 + (3 * Array.length r.ids) + (3 * Array.length r.grams))) + posts

let stats t =
  let m = t.main and r = t.recent in
  let slots tier = Array.fold_left ( + ) 0 tier.counts in
  (* an overlay entry is at most a map leaf of its own (six words)
     under a branch (five) and, but for a tombstone, a document of five *)
  let over = Ident.Map.fold (fun _ d acc -> acc + if d == tomb then 11 else 16) t.over 0 in
  { trigrams = union_count m.grams r.grams; postings = slots m + slots r; docs = t.ndocs;
    bytes = tier_bytes m + tier_bytes r + (8 * over);
    tiers = (if Array.length r.ids = 0 then 1 else 2) }

(* The live documents as a tier without postings: the overlay over
   [recent] over [main], tombstones dropped. *)
let live t =
  let layer ~drop n b = entries (renumber ~drop n b) n b in
  layer ~drop:true (layer ~drop:false (overlay t) t.recent) t.main

let equal a b =
  let a = live a and b = live b in
  a.ids = b.ids
  && Array.for_all2 String.equal a.paths b.paths
  && Array.for_all2 String.equal a.texts b.texts
