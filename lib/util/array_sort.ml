let insertion cmp a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) and j = ref (i - 1) in
    while !j >= lo && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* [a]'s [lo, hi) sorted: halves sorted, then, unless already in
   order, merged back into [a] from a copy of the left half in [tmp],
   the left one first on ties. *)
let rec merge_sort cmp a tmp lo hi =
  if hi - lo <= 8 then insertion cmp a lo hi
  else begin
    let mid = (lo + hi) / 2 in
    merge_sort cmp a tmp lo mid;
    merge_sort cmp a tmp mid hi;
    if cmp a.(mid - 1) a.(mid) > 0 then begin
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && cmp tmp.(!i) a.(!j) <= 0) then begin
          a.(k) <- tmp.(!i);
          incr i
        end
        else begin
          a.(k) <- a.(!j);
          incr j
        end
      done
    end
  end

let rec ordered cmp a i = i >= Array.length a || (cmp a.(i - 1) a.(i) <= 0 && ordered cmp a (i + 1))

let sort cmp a =
  let n = Array.length a in
  if n <= 8 then insertion cmp a 0 n
  else if not (ordered cmp a 1) then merge_sort cmp a (Array.make n a.(0)) 0 n
