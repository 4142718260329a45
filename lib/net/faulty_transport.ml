(* Deterministic fault injection at the frame level, mirroring what
   Faulty_io does for disk I/O: a seeded generator decides, frame by
   frame, whether the wire drops, duplicates, corrupts, truncates or
   delays it. One instance models one direction of one connection, so a
   pair with asymmetric rates is a one-way partition. *)

type config = {
  seed : int;
  drop : float;
  dup : float;
  corrupt : float;
  truncate : float;
  delay : float;
}

let quiet =
  { seed = 0; drop = 0.0; dup = 0.0; corrupt = 0.0; truncate = 0.0; delay = 0.0 }

type t = {
  cfg : config;
  mutable state : int;
  mutable held : string list;  (* delayed frames, delivered later, reversed *)
  mutable injected : int;
}

(* splitmix-style scramble so adjacent seeds (and seed 0) start from
   well-separated states — [lor 1] alone would collide seeds 2k and
   2k+1 *)
let scramble seed =
  let z = (seed + 0x9E3779B9) land max_int in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B land max_int in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 land max_int in
  let z = z lxor (z lsr 16) in
  if z = 0 then 1 else z

let create cfg = { cfg; state = scramble cfg.seed; held = []; injected = 0 }

(* xorshift-ish step; only determinism and rough uniformity matter *)
let next_float t =
  let s = t.state in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  let s = s land max_int in
  t.state <- s;
  float_of_int (s land 0xFFFFFF) /. float_of_int 0x1000000

let next_int t bound =
  if bound <= 0 then 0 else int_of_float (next_float t *. float_of_int bound)

let roll t p = p > 0.0 && next_float t < p

let mangle t frame =
  let n = String.length frame in
  if roll t t.cfg.corrupt && n > 0 then begin
    t.injected <- t.injected + 1;
    let i = next_int t n in
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl next_int t 8)));
    Bytes.to_string b
  end
  else if roll t t.cfg.truncate && n > 1 then begin
    t.injected <- t.injected + 1;
    String.sub frame 0 (1 + next_int t (n - 1))
  end
  else frame

let injected t = t.injected

let apply t frame =
  (* anything previously delayed goes out first: the delay reorders a
     frame behind nothing, it only de-synchronizes delivery from send *)
  let backlog = List.rev t.held in
  t.held <- [];
  if roll t t.cfg.drop then begin
    t.injected <- t.injected + 1;
    backlog
  end
  else begin
    let f = mangle t frame in
    let out = if roll t t.cfg.dup then (t.injected <- t.injected + 1; [ f; f ]) else [ f ] in
    if roll t t.cfg.delay then begin
      t.injected <- t.injected + 1;
      t.held <- List.rev out;
      backlog
    end
    else backlog @ out
  end

let flush t =
  let backlog = List.rev t.held in
  t.held <- [];
  backlog

let cut t = t.held <- []
