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
   reading their text. Documents built into a tier set every bit. *)
type doc = { path : string; text : string; sig_lo : int; sig_hi : int }

(* The removal of a carrier that an older layer holds: no trigrams, and
   it is told apart by physical equality. *)
let tomb = { path = ""; text = ""; sig_lo = 0; sig_hi = 0 }

type tier = {
  ids : int array;  (* ascending carrier ids *)
  docs : doc array;  (* per slot; [recent]'s may be tombstones *)
  grams : int array;  (* ascending distinct trigram codes *)
  posts : Bytes.t array;  (* per trigram: ascending slots, packed *)
  slots : int;  (* total posting slots, for stats *)
}

type t = {
  main : tier;
  recent : tier;  (* empty after a tier merge *)
  over : doc Ident.Map.t;
  nover : int;  (* cardinal of [over]: stdlib [Map.cardinal] is O(n) *)
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

(* The tier of [docs] at the ascending carriers [ids], in two passes. *)
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

let no_tier = { ids = [||]; docs = [||]; grams = [||]; posts = [||]; slots = 0 }

let of_docs l =
  let a = Array.of_list l in
  let docs = Array.map (fun (_, path, text) -> unsigned path text) a in
  let main = build (Array.map (fun (id, _, _) -> Ident.to_int id) a) docs in
  { main; recent = no_tier; over = Ident.Map.empty; nover = 0; ndocs = Array.length a }

let empty = of_docs []

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
      if not (drop && n.docs.(j) == tomb) then begin
        rn.(j) <- !k;
        incr k
      end)
    n.ids;
  older_below max_int;
  (!k, rb, rn)

(* The ids and documents of [n] over [b], placed by [renumber]. *)
let entries (k, rb, rn) n b =
  let ids = Array.make k 0 and docs = Array.make k tomb in
  let place r src =
    Array.iteri
      (fun i s ->
        if s >= 0 then begin
          ids.(s) <- src.ids.(i);
          docs.(s) <- src.docs.(i)
        end)
      r
  in
  place rb b;
  place rn n;
  (ids, docs)

(* The slots of [bp] that [rb] keeps. *)
let kept rb bp =
  let n = ref 0 in
  for i = 0 to plen bp - 1 do
    if rb.(pget bp i) >= 0 then incr n
  done;
  !n

(* The [len] slots of [bp] that [rb] keeps merged with those of [np],
   each renumbered by its tier's map; all ascending. *)
let merge_posting rb bp rn np len =
  let nn = plen np in
  let p = Bytes.create (4 * len) and k = ref 0 and j = ref 0 in
  let next = ref (if nn > 0 then rn.(pget np 0) else max_int) in
  for i = 0 to plen bp - 1 do
    let r = rb.(pget bp i) in
    if r >= 0 then begin
      while !next < r do
        pset p !k !next;
        incr k;
        incr j;
        next := if !j < nn then rn.(pget np !j) else max_int
      done;
      pset p !k r;
      incr k
    end
  done;
  for m = !j to nn - 1 do
    pset p (!k + m - !j) rn.(pget np m)
  done;
  p

(* The tier of [n]'s entries over the older [b]'s: the one merge behind
   a fold and a tier merge, as inverted files merge a buffer into the
   main index. It reads no text: each posting of [b] is renumbered,
   shadowed slots skipped, and merged with [n]'s; a first pass counts
   the kept slots, so every merged posting is allocated once at its
   length. Tombstones carry no postings. *)
let merge ~drop n b =
  (* a fold into an empty [recent] keeps the overlay's build *)
  if Array.length b.ids = 0 && not drop then n
  else begin
    let ((_, rb, rn) as slots) = renumber ~drop n b in
    let ids, docs = entries slots n b in
    let grams = ref [] and posts = ref [] in
    let rec go i j =
      let bc = if i < Array.length b.grams then b.grams.(i) else max_int in
      let nc = if j < Array.length n.grams then n.grams.(j) else max_int in
      let code = min bc nc in
      if code < max_int then begin
        let pick c k a = if c = code then a.(k) else Bytes.empty in
        let bp = pick bc i b.posts and np = pick nc j n.posts in
        let len = kept rb bp + plen np in
        if len > 0 then begin
          grams := code :: !grams;
          posts := merge_posting rb bp rn np len :: !posts
        end;
        go (if bc = code then i + 1 else i) (if nc = code then j + 1 else j)
      end
    in
    go 0 0;
    let posts = Array.of_list (List.rev !posts) in
    let slots = Array.fold_left (fun n p -> n + plen p) 0 posts in
    { ids; docs; grams = Array.of_list (List.rev !grams); posts; slots }
  end

(* The overlay's entries as a tier without postings. *)
let overlay t =
  let ids = Array.make t.nover 0 and docs = Array.make t.nover tomb and k = ref 0 in
  Ident.Map.iter
    (fun id d ->
      ids.(!k) <- Ident.to_int id;
      docs.(!k) <- d;
      incr k)
    t.over;
  { no_tier with ids; docs }

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
  let recent = merge ~drop:false (build o.ids o.docs) t.recent in
  let t = { t with over = Ident.Map.empty; nover = 0 } in
  if tier_share * Array.length recent.ids > Array.length t.main.ids then
    { t with main = merge ~drop:true recent t.main; recent = no_tier }
  else { t with recent }

(* [id]'s newest entry; [tomb] when no layer holds it. *)
let current t id =
  match Ident.Map.find_opt id t.over with
  | Some d -> d
  | None ->
    let i = find t.recent.ids (Ident.to_int id) in
    if i >= 0 then t.recent.docs.(i)
    else
      let i = find t.main.ids (Ident.to_int id) in
      if i < 0 then tomb else t.main.docs.(i)

(* Set [id]'s overlay entry to [d]; [dn] is the change in documents. A
   tombstone shadowing no tier entry is no entry at all. *)
let set_entry t id d dn =
  let had = Ident.Map.mem id t.over and i = Ident.to_int id in
  let t =
    if d == tomb && find t.recent.ids i < 0 && find t.main.ids i < 0 then
      { t with over = Ident.Map.remove id t.over; nover = t.nover - Bool.to_int had }
    else { t with over = Ident.Map.add id d t.over; nover = t.nover + Bool.to_int (not had) }
  in
  let t = { t with ndocs = t.ndocs + dn } in
  if t.nover > max fold_floor (t.ndocs / fold_share) then fold t else t

let add_doc t id ~path s =
  let d = current t id in
  if d == tomb then set_entry t id (signed path s) 1
  else if d.path == path && d.text == s then t
  else set_entry t id (signed path s) 0

let remove_doc t id = if current t id == tomb then t else set_entry t id tomb (-1)

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

(* A needle trigram with its posting in every tier: [One] while [recent]
   is empty, so a one-tier lookup pays no word for the empty tier. *)
type gram = One of int * Bytes.t | Two of int * Bytes.t * Bytes.t

let code = function One (c, _) | Two (c, _, _) -> c
let in_main = function One (_, p) | Two (_, p, _) -> p
let in_recent = function One _ -> Bytes.empty | Two (_, _, p) -> p
let gram_len g = plen (in_main g) + plen (in_recent g)

(* A needle's distinct trigrams with their postings, rarest first:
   looked up once, to size the needle and to intersect. *)
type lookup = { needle : string; grams : gram list }

let needle l = l.needle
let by_length a b = Int.compare (gram_len a) (gram_len b)

let posting (tier : tier) code =
  let i = find tier.grams code in
  if i < 0 then Bytes.empty else tier.posts.(i)

let lookup t n =
  if String.length n < min_needle then
    invalid_arg "Text_index.lookup: needle shorter than 3 bytes";
  let grams =
    List.init (String.length n - 2) (trigram n)
    |> List.sort_uniq Int.compare
    |> List.map (fun code ->
           if Array.length t.recent.ids = 0 then One (code, posting t.main code)
           else Two (code, posting t.main code, posting t.recent code))
    |> List.sort by_length
  in
  { needle = n; grams }

let estimate t l = gram_len (List.hd l.grams) + t.nover

(* the lookups' distinct trigrams, rarest first: one needle's are
   already *)
let union_grams = function
  | [ l ] -> l.grams
  | ls ->
    List.concat_map (fun l -> l.grams) ls
    |> List.sort_uniq (fun a b -> Int.compare (code a) (code b))
    |> List.sort by_length

(* Test each slot of [tier]'s [rarest] posting that [in_rest] finds in
   every other needle posting and that no newer layer shadows: the
   overlay, or [newer]. *)
let walk over newer tier rarest in_rest test =
  for i = 0 to plen rarest - 1 do
    let slot = pget rarest i in
    let id = tier.ids.(slot) in
    if in_rest slot 0 && find newer.ids id < 0 && not (Ident.Map.mem (Ident.of_int id) over)
    then test (Ident.of_int id) tier.docs.(slot)
  done

let query_probe t ?path lookups =
  if lookups = [] then invalid_arg "Text_index.query_probe: no needle";
  let grams = union_grams lookups and needles = List.map needle lookups in
  let postings = List.map in_main grams in
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
      if contains_all d.text needles then hits := id :: !hits
    end
  in
  walk t.over t.recent t.main (List.hd postings) in_rest test;
  if Array.length t.recent.ids > 0 then begin
    (* the same walk over [recent]'s postings of the same trigrams *)
    List.iteri (fun k g -> if k > 0 then rest.(k - 1) <- in_recent g) grams;
    Array.fill cursor 0 (Array.length cursor) 0;
    walk t.over no_tier t.recent (in_recent (List.hd grams)) in_rest test
  end;
  if not (Ident.Map.is_empty t.over) then begin
    let lo = ref 0 and hi = ref 0 in
    List.iter (fun g -> sign lo hi (code g)) grams;
    let lo = !lo and hi = !hi in
    Ident.Map.iter
      (fun id d ->
        if d != tomb && d.sig_lo land lo = lo && d.sig_hi land hi = hi then test id d)
      t.over
  end;
  ( !hits,
    {
      pr_trigrams = List.length grams;
      pr_postings = List.fold_left (fun acc g -> acc + gram_len g) 0 grams;
      pr_candidates = !candidates;
      pr_verified = List.length !hits;
    } )

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

let stats t =
  let m = t.main and r = t.recent in
  let slots = m.slots + r.slots in
  (* 4 bytes per posting slot, words per trigram, tier entry and overlay node *)
  let words =
    (3 * (Array.length m.grams + Array.length r.grams))
    + (7 * (Array.length m.ids + Array.length r.ids))
    + (12 * t.nover)
  in
  { trigrams = union_count m.grams r.grams; postings = slots; docs = t.ndocs;
    bytes = (4 * slots) + (8 * words); tiers = (if Array.length r.ids = 0 then 1 else 2) }

(* The live documents as a tier without postings: the overlay over
   [recent] over [main], tombstones dropped. *)
let live t =
  let layer ~drop n b =
    let ids, docs = entries (renumber ~drop n b) n b in
    { no_tier with ids; docs }
  in
  layer ~drop:true (layer ~drop:false (overlay t) t.recent) t.main

let equal a b =
  let a = live a and b = live b in
  let same x y = String.equal x.path y.path && String.equal x.text y.text in
  a.ids = b.ids && Array.for_all2 same a.docs b.docs
