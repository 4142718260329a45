open Seed_util
open Helpers

(* ------------------------------------------------------------------ *)
(* Path                                                                 *)
(* ------------------------------------------------------------------ *)

let path_roundtrip s () =
  let p = ok (Path.of_string s) in
  Alcotest.(check string) "roundtrip" s (Path.to_string p)

let test_path_parse_simple () =
  let p = ok (Path.of_string "Alarms") in
  Alcotest.(check int) "depth" 1 (List.length p);
  Alcotest.(check bool) "root" true (Path.parent p = None);
  Alcotest.(check string) "last" "Alarms" (Path.last p).Path.name

let test_path_parse_nested () =
  let p = ok (Path.of_string "Alarms.Text.Body.Keywords[1]") in
  Alcotest.(check int) "depth" 4 (List.length p);
  let last = Path.last p in
  Alcotest.(check string) "last" "Keywords" last.Path.name;
  Alcotest.(check (option int)) "index" (Some 1) last.Path.index

let test_path_parent () =
  let p = ok (Path.of_string "A.B.C") in
  let parent = Option.get (Path.parent p) in
  Alcotest.(check string) "parent" "A.B" (Path.to_string parent);
  Alcotest.(check (option reject)) "root has no parent" None
    (Path.parent (ok (Path.of_string "A")))

let test_path_bad () =
  let bad s =
    check_err s (function Seed_error.Invalid_operation _ -> true | _ -> false)
      (Path.of_string s)
  in
  bad "";
  bad "A..B";
  bad "A.";
  bad ".A";
  bad "A[";
  bad "A[x]";
  bad "A[-1]";
  bad "A[1";
  bad "A]b"

let path_gen =
  let open QCheck2.Gen in
  let component =
    let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* index = opt (int_range 0 99) in
    return { Path.name; index }
  in
  list_size (int_range 1 5) component

let prop_path_roundtrip =
  qcheck_case "path to_string/of_string roundtrip" path_gen (fun p ->
      p = ok (Path.of_string (Path.to_string p)))

(* ------------------------------------------------------------------ *)
(* Version_id                                                           *)
(* ------------------------------------------------------------------ *)

let test_vid_trunk () =
  let v = Version_id.trunk 3 in
  Alcotest.(check string) "print" "3.0" (Version_id.to_string v);
  Alcotest.(check bool) "trunk" true (Version_id.is_trunk v);
  Alcotest.(check int) "major" 3 (Version_id.major v)

let test_vid_child () =
  let v = Version_id.trunk 1 in
  let b1 = Version_id.child v 1 in
  Alcotest.(check string) "branch" "1.1" (Version_id.to_string b1);
  Alcotest.(check bool) "branch not trunk" false (Version_id.is_trunk b1);
  let b11 = Version_id.child b1 1 in
  Alcotest.(check string) "nested branch" "1.1.1" (Version_id.to_string b11)

let test_vid_parse () =
  let v = ok (Version_id.of_string "2.0") in
  Alcotest.(check bool) "eq" true (Version_id.equal v (Version_id.trunk 2));
  check_err "empty" (fun _ -> true) (Version_id.of_string "");
  check_err "alpha" (fun _ -> true) (Version_id.of_string "1.a");
  check_err "negative" (fun _ -> true) (Version_id.of_string "1.-2")

let test_vid_order () =
  let m =
    List.fold_left
      (fun m s -> Version_id.Map.add (ok (Version_id.of_string s)) () m)
      Version_id.Map.empty [ "2.0"; "1.1.1"; "1.1"; "1.0" ]
  in
  Alcotest.(check (list string)) "map order" [ "1.0"; "1.1"; "1.1.1"; "2.0" ]
    (List.map (fun (v, ()) -> Version_id.to_string v) (Version_id.Map.bindings m))

let test_vid_invalid_args () =
  Alcotest.check_raises "trunk 0" (Invalid_argument "Version_id.trunk: major must be >= 1")
    (fun () -> ignore (Version_id.trunk 0));
  Alcotest.check_raises "child 0" (Invalid_argument "Version_id.child: index must be >= 1")
    (fun () -> ignore (Version_id.child (Version_id.trunk 1) 0))

let vid_gen =
  QCheck2.Gen.(list_size (int_range 1 4) (int_range 0 20))

let prop_vid_roundtrip =
  qcheck_case "version id roundtrip" vid_gen (fun ints ->
      match Version_id.of_ints ints with
      | Ok v ->
        Version_id.equal v (ok (Version_id.of_string (Version_id.to_string v)))
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Ident                                                                *)
(* ------------------------------------------------------------------ *)

let test_ident_gen () =
  let g = Ident.Gen.create () in
  let a = Ident.Gen.next g and b = Ident.Gen.next g in
  Alcotest.(check bool) "distinct" false (Ident.equal a b);
  Alcotest.(check string) "printed" "#1" (Ident.to_string a);
  Alcotest.(check int) "current" 2 (Ident.Gen.current g)

let test_ident_mark_used () =
  let g = Ident.Gen.create () in
  Ident.Gen.mark_used g (Ident.of_int 10);
  let next = Ident.Gen.next g in
  Alcotest.(check int) "skips used" 11 (Ident.to_int next);
  Ident.Gen.mark_used g (Ident.of_int 5);
  Alcotest.(check int) "never goes back" 12 (Ident.to_int (Ident.Gen.next g))

(* Ident.Set against Stdlib's Set.Make (Int): random operation
   sequences over keys at leaf boundaries (a leaf holds 32 ids), around
   0, negatives and the ends of the int range. Every intermediate set is
   kept and re-checked at the end, so no operation may have changed a set
   an earlier step still holds. *)
module M = Set.Make (Int)

type set_op = Add of int | Remove of int | Union of int list | Inter of int list

let special_keys =
  [ 0; 1; 31; 32; 33; 63; 64; 65; -1; -31; -32; -33; -64; min_int; min_int + 1; max_int;
    max_int - 1; max_int - 32 ]

let key_gen =
  QCheck2.Gen.(
    frequency
      [ (3, oneofl special_keys); (4, int_range (-70) 200); (1, int); (1, int_range 0 5000) ])

let set_op_gen =
  QCheck2.Gen.(
    let keys = list_size (int_range 0 40) key_gen in
    frequency
      [
        (4, map (fun k -> Add k) key_gen);
        (2, map (fun k -> Remove k) key_gen);
        (1, map (fun l -> Union l) keys);
        (1, map (fun l -> Inter l) keys);
      ])

let ints s = List.map Ident.to_int (Ident.Set.elements s)
let set_of l = List.fold_left (fun s i -> Ident.Set.add (Ident.of_int i) s) Ident.Set.empty l

let built l =
  let b = Ident.Set.builder () in
  List.iter (fun i -> Ident.Set.push b (Ident.of_int i)) l;
  Ident.Set.build b

(* every reader of [s] agrees with the model [m] *)
let agrees (s, m) =
  let e = M.elements m in
  let via_fold = List.rev (Ident.Set.fold (fun i acc -> Ident.to_int i :: acc) s []) in
  let via_iter = ref [] in
  Ident.Set.iter (fun i -> via_iter := Ident.to_int i :: !via_iter) s;
  let has k = Ident.Set.mem (Ident.of_int k) s = M.mem k m in
  let ex p = Ident.Set.exists (fun i -> p (Ident.to_int i)) s = M.exists p m in
  ints s = e && via_fold = e && List.rev !via_iter = e
  && Ident.Set.cardinal s = M.cardinal m
  && Ident.Set.is_empty s = M.is_empty m
  && List.for_all has special_keys && List.for_all has e
  && ex (fun i -> i mod 3 = 0) && ex (fun i -> i < 0) && ex (fun i -> i = 33)
  && s = set_of e && s = built e

let step (s, m) op =
  let against l f g =
    let t = set_of l and n = M.of_list l in
    let same = M.equal m n in
    ((s = t) = same && agrees (t, n), (f s t, g m n))
  in
  match op with
  | Add k ->
    let s' = Ident.Set.add (Ident.of_int k) s in
    ((not (M.mem k m)) || s' == s, (s', M.add k m))
  | Remove k ->
    let s' = Ident.Set.remove (Ident.of_int k) s in
    (M.mem k m || s' == s, (s', M.remove k m))
  | Union l -> against l Ident.Set.union M.union
  | Inter l -> against l Ident.Set.inter M.inter

let prop_ident_set_model =
  qcheck_case ~count:500 "Ident.Set agrees with Set.Make (Int)"
    QCheck2.Gen.(list_size (int_range 0 80) set_op_gen)
    (fun ops ->
      let _, ok, kept =
        List.fold_left
          (fun (cur, ok, kept) op ->
            let same, next = step cur op in
            (next, ok && same && agrees next, next :: kept))
          ((Ident.Set.empty, M.empty), true, [])
          ops
      in
      ok && List.for_all agrees kept)

let test_ident_set_builder () =
  let b = Ident.Set.builder () in
  Alcotest.(check bool) "empty" true (Ident.Set.is_empty (Ident.Set.build b));
  List.iter (fun i -> Ident.Set.push b (Ident.of_int i)) [ min_int; -33; 0; 31; 32 ];
  Alcotest.(check (list int)) "built" [ min_int; -33; 0; 31; 32 ] (ints (Ident.Set.build b));
  Ident.Set.push b (Ident.of_int max_int);
  Alcotest.(check (list int)) "push after build" [ min_int; -33; 0; 31; 32; max_int ]
    (ints (Ident.Set.build b));
  Alcotest.check_raises "descending" (Invalid_argument "Ident.Set.push: ids not ascending")
    (fun () -> Ident.Set.push b (Ident.of_int 64))

(* Ident.Map against Stdlib's Map.Make (Int), over the same keys: dense
   runs across leaf boundaries, sparse ids, 0, negatives and the ends of
   the int range. [Update]'s function drops a binding or leaves a key
   unbound in some cases; [Keep] and [Put_current] rebind a key to its
   own value. A map's tree is unique, so it must equal the one its
   bindings build. Every map is kept and re-checked at the end. *)
module IM = Map.Make (Int)

type map_op =
  | Put of int * int
  | Put_fresh of int * int
  | Put_current of int
  | Update of int * int
  | Keep of int
  | Drop of int

let map_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Put (k, v)) key_gen small_nat);
        (2, map2 (fun k v -> Put_fresh (k, v)) key_gen small_nat);
        (1, map (fun k -> Put_current k) key_gen);
        (2, map2 (fun k v -> Update (k, v)) key_gen small_nat);
        (1, map (fun k -> Keep k) key_gen);
        (2, map (fun k -> Drop k) key_gen);
      ])

let bump v = function
  | None -> if v land 1 = 0 then Some v else None
  | Some x -> if (x + v) land 3 = 0 then None else Some (x + v)

let map_agrees (t, m) =
  let e = IM.bindings m in
  let listed = List.map (fun (i, v) -> (Ident.to_int i, v)) (Ident.Map.bindings t) in
  let via_fold = List.rev (Ident.Map.fold (fun i v acc -> (Ident.to_int i, v) :: acc) t []) in
  let via_iter = ref [] in
  Ident.Map.iter (fun i v -> via_iter := (Ident.to_int i, v) :: !via_iter) t;
  let probe k =
    let id = Ident.of_int k in
    Ident.Map.find_or ~default:(-1) id t = Option.value (IM.find_opt k m) ~default:(-1)
    && Ident.Map.mem id t = IM.mem k m
  in
  listed = e && via_fold = e && List.rev !via_iter = e
  && Ident.Map.cardinal t = IM.cardinal m
  && Ident.Map.is_empty t = IM.is_empty m
  && List.for_all probe special_keys
  && List.for_all (fun (k, _) -> probe k && probe (k + 1) && probe (k - 1)) e
  && t = List.fold_left (fun t (k, v) -> Ident.Map.add (Ident.of_int k) v t) Ident.Map.empty e

(* whether [t'] is [t] itself exactly when the model did not change,
   and [add_fresh]'s flag says whether the key was unbound *)
let map_step (t, m) op =
  let id k = Ident.of_int k in
  let fresh = ref true in
  let t', m' =
    match op with
    | Put (k, v) -> (Ident.Map.add (id k) v t, IM.add k v m)
    | Put_fresh (k, v) -> (Ident.Map.add_fresh fresh (id k) v t, IM.add k v m)
    | Put_current k ->
      let v = Ident.Map.find_or ~default:k (id k) t in
      (Ident.Map.add (id k) v t, IM.add k v m)
    | Update (k, v) -> (Ident.Map.update (id k) (bump v) t, IM.update k (bump v) m)
    | Keep k -> (Ident.Map.update (id k) Fun.id t, m)
    | Drop k -> (Ident.Map.remove (id k) t, IM.remove k m)
  in
  let reported = match op with Put_fresh (k, _) -> !fresh = not (IM.mem k m) | _ -> true in
  (reported && (t' == t) = IM.equal Int.equal m m', (t', m'))

let prop_ident_map_model =
  qcheck_case ~count:500 "Ident.Map agrees with Map.Make (Int)"
    QCheck2.Gen.(list_size (int_range 0 120) map_op_gen)
    (fun ops ->
      let _, ok, kept =
        List.fold_left
          (fun (cur, ok, kept) op ->
            let same, next = map_step cur op in
            (next, ok && same && map_agrees next, next :: kept))
          ((Ident.Map.empty, IM.empty), true, [])
          ops
      in
      ok && List.for_all map_agrees kept)

(* ------------------------------------------------------------------ *)
(* Seed_error combinators                                               *)
(* ------------------------------------------------------------------ *)

let test_error_combinators () =
  let open Seed_error in
  let e = Unknown_object "x" in
  Alcotest.(check bool) "iter_result ok" true
    (iter_result (fun _ -> Ok ()) [ 1; 2 ] = Ok ());
  Alcotest.(check bool) "iter_result err" true
    (iter_result (fun x -> if x > 1 then Error e else Ok ()) [ 1; 2; 3 ] = Error e);
  let r = map_result (fun x -> if x > 0 then Ok (x * 2) else Error e) [ 1; 2 ] in
  Alcotest.(check bool) "map_result" true (r = Ok [ 2; 4 ]);
  let r = map_result (fun x -> if x > 0 then Ok x else Error e) [ 1; -1; 2 ] in
  Alcotest.(check bool) "map_result stops" true (r = Error e)

let test_error_printing () =
  let open Seed_error in
  let non_empty e = String.length (to_string e) > 0 in
  List.iter
    (fun e -> Alcotest.(check bool) "printable" true (non_empty e))
    [
      Unknown_class "C";
      Unknown_association "A";
      Unknown_role ("A", "r");
      Unknown_object "o";
      Unknown_item "#1";
      Unknown_version "1.0";
      Unknown_procedure "p";
      Duplicate_name "n";
      Duplicate_class "c";
      Duplicate_association "a";
      Duplicate_version "1.0";
      Invalid_cardinality "x";
      Cardinality_violation
        { element = "e"; subject = "s"; bound = "max 1"; count = 2 };
      Type_mismatch { expected = "STRING"; got = "INT" };
      Membership_violation { expected = "Data"; got = "Thing"; context = "c" };
      Cycle_detected "Contained";
      Not_in_generalization { item_class = "Data"; target = "X" };
      Vetoed { procedure = "p"; reason = "r" };
      Pattern_violation "m";
      Version_frozen "1.0";
      Unsaved_changes "1.0";
      Locked { item = "i"; holder = "h" };
      Invalid_operation "m";
      Schema_violation "m";
      Io_error "m";
      Corrupt "m";
    ]

let test_ok_exn () =
  Alcotest.(check int) "ok" 1 (Seed_error.ok_exn (Ok 1));
  Alcotest.check_raises "raises"
    (Seed_error.Error (Seed_error.Unknown_object "x"))
    (fun () -> ignore (Seed_error.ok_exn (Error (Seed_error.Unknown_object "x"))))

(* ------------------------------------------------------------------ *)
(* Retry                                                                *)
(* ------------------------------------------------------------------ *)

let test_retry_first_try_no_sleep () =
  let slept = ref [] in
  let r =
    Retry.with_retry ~sleep:(fun d -> slept := d :: !slept) (fun () -> Ok 42)
  in
  Alcotest.(check int) "value" 42 (ok r);
  Alcotest.(check (list (float 0.0))) "no sleeps" [] !slept

let test_retry_bounded_attempts () =
  let calls = ref 0 in
  let r =
    Retry.with_retry ~sleep:(fun _ -> ()) (fun () ->
        incr calls;
        Seed_error.fail (Seed_error.Io_transient "flaky"))
  in
  Alcotest.(check int) "exactly attempts calls" Retry.default_policy.Retry.attempts !calls;
  (* the exhausted transient is hardened: callers never see
     Io_transient escape the retry layer *)
  check_err "hardened to permanent"
    (function Seed_error.Io_error m -> String.length m > 0 | _ -> false)
    r

let test_retry_transient_then_ok () =
  let calls = ref 0 and slept = ref [] in
  let r =
    Retry.with_retry ~sleep:(fun d -> slept := d :: !slept) (fun () ->
        incr calls;
        if !calls < 3 then Seed_error.fail (Seed_error.Io_transient "eintr")
        else Ok "done")
  in
  Alcotest.(check string) "succeeds" "done" (ok r);
  Alcotest.(check int) "two backoffs" 2 (List.length !slept);
  Alcotest.(check bool) "delays positive" true (List.for_all (fun d -> d > 0.0) !slept);
  Alcotest.(check bool) "backoff grows" true
    (match !slept with [ d2; d1 ] -> d2 > d1 | _ -> false)

let test_retry_permanent_not_retried () =
  let calls = ref 0 in
  let r =
    Retry.with_retry ~sleep:(fun _ -> ()) (fun () ->
        incr calls;
        Seed_error.fail (Seed_error.Io_error "media died"))
  in
  Alcotest.(check int) "one call" 1 !calls;
  check_err "error verbatim"
    (function Seed_error.Io_error "media died" -> true | _ -> false)
    r

let test_retry_custom_should_retry () =
  let calls = ref 0 in
  let should_retry = function Seed_error.Corrupt _ -> !calls < 2 | _ -> false in
  let r =
    Retry.with_retry ~should_retry ~sleep:(fun _ -> ()) (fun () ->
        incr calls;
        Seed_error.fail (Seed_error.Corrupt "maybe a bad read"))
  in
  Alcotest.(check int) "retried once then surfaced" 2 !calls;
  check_err "corrupt stays corrupt"
    (function Seed_error.Corrupt _ -> true | _ -> false)
    r

let test_retry_delay_curve () =
  let p =
    { Retry.attempts = 10; base_delay = 0.001; max_delay = 0.05; multiplier = 2.0 }
  in
  (* exactly the capped exponential *)
  List.iter
    (fun (a, expected) ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "attempt %d" a)
        expected (Retry.delay_for p ~attempt:a))
    [ (1, 0.001); (2, 0.002); (3, 0.004); (4, 0.008); (5, 0.016); (6, 0.032);
      (7, 0.05); (8, 0.05) ];
  (* the cap holds even deep into the schedule *)
  Alcotest.(check bool) "capped" true
    (Retry.delay_for p ~attempt:40 <= p.Retry.max_delay)

let test_retry_on_retry_hook () =
  let seen = ref [] in
  let calls = ref 0 in
  let _ =
    Retry.with_retry ~sleep:ignore
      ~on_retry:(fun ~attempt e -> seen := (attempt, e) :: !seen)
      (fun () ->
        incr calls;
        if !calls < 3 then Seed_error.fail (Seed_error.Io_transient "x")
        else Ok ())
  in
  Alcotest.(check (list int)) "attempts reported" [ 1; 2 ]
    (List.rev_map fst !seen)

(* deadline-based retry: a virtual clock advanced by the injected sleep
   makes the whole schedule observable in zero wall time *)
let deadline_harness ?(policy = Retry.default_policy) ~deadline f =
  let clock = ref 0.0 and sleeps = ref [] in
  let r =
    Retry.with_deadline ~policy
      ~sleep:(fun d ->
        sleeps := d :: !sleeps;
        clock := !clock +. d)
      ~now:(fun () -> !clock)
      ~deadline f
  in
  (r, !clock, List.rev !sleeps)

let test_deadline_retries_until_deadline () =
  let calls = ref 0 in
  let r, clock, sleeps =
    deadline_harness ~deadline:0.5 (fun () ->
        incr calls;
        Seed_error.fail (Seed_error.Io_transient "down"))
  in
  Alcotest.(check bool) "many attempts" true (!calls > Retry.default_policy.Retry.attempts);
  (* no sleep may extend past the deadline: the clamp spends the tail of
     the window on one shortened wait, so the clock lands exactly on it *)
  Alcotest.(check (float 1e-9)) "stopped at the deadline" 0.5 clock;
  Alcotest.(check bool) "sleeps all positive" true
    (List.for_all (fun d -> d > 0.0) sleeps);
  check_err "hardened to permanent"
    (function Seed_error.Io_error _ -> true | _ -> false)
    r

let test_deadline_success_midway () =
  let calls = ref 0 in
  let r, clock, _ =
    deadline_harness ~deadline:10.0 (fun () ->
        incr calls;
        if !calls < 4 then Seed_error.fail (Seed_error.Io_transient "warming up")
        else Ok "up")
  in
  Alcotest.(check string) "succeeds" "up" (ok r);
  Alcotest.(check int) "four calls" 4 !calls;
  Alcotest.(check bool) "well before the deadline" true (clock < 10.0)

let test_deadline_ignores_attempt_count () =
  (* the policy's [attempts] bounds [with_retry], not [with_deadline]:
     only the clock ends this loop *)
  let calls = ref 0 in
  let policy = { Retry.default_policy with Retry.attempts = 1 } in
  let r, _, _ =
    deadline_harness ~policy ~deadline:0.1 (fun () ->
        incr calls;
        Seed_error.fail (Seed_error.Io_transient "flaky"))
  in
  Alcotest.(check bool) "more than [attempts] calls" true (!calls > 1);
  check_err "still hardened"
    (function Seed_error.Io_error _ -> true | _ -> false)
    r

let test_deadline_permanent_not_retried () =
  let calls = ref 0 in
  let r, _, sleeps =
    deadline_harness ~deadline:10.0 (fun () ->
        incr calls;
        Seed_error.fail (Seed_error.Io_error "media died"))
  in
  Alcotest.(check int) "one call" 1 !calls;
  Alcotest.(check (list (float 0.0))) "no sleeps" [] sleeps;
  check_err "error verbatim"
    (function Seed_error.Io_error "media died" -> true | _ -> false)
    r

let test_deadline_already_expired () =
  (* a deadline in the past still grants exactly one try — callers get
     one honest attempt, never a synthetic failure *)
  let calls = ref 0 in
  let r, _, sleeps =
    deadline_harness ~deadline:(-1.0) (fun () ->
        incr calls;
        Seed_error.fail (Seed_error.Io_transient "late"))
  in
  Alcotest.(check int) "one call" 1 !calls;
  Alcotest.(check (list (float 0.0))) "no sleeps" [] sleeps;
  check_err "hardened immediately"
    (function Seed_error.Io_error _ -> true | _ -> false)
    r

(* [Array_sort.sort] against [List.stable_sort] on pairs compared by
   their first element only, so stability shows; sizes span the
   insertion runs and several merge passes, values few enough to tie. *)
let prop_array_sort =
  qcheck_case ~count:300 "Array_sort.sort = List.stable_sort"
    QCheck2.Gen.(list_size (int_range 0 300) (pair (int_range 0 20) nat))
    (fun l ->
      let cmp (a, _) (b, _) = Int.compare a b in
      let a = Array.of_list l in
      Array_sort.sort cmp a;
      Array.to_list a = List.stable_sort cmp l)

let () =
  Alcotest.run "util"
    [
      ( "path",
        [
          tc "parse simple" test_path_parse_simple;
          tc "parse nested" test_path_parse_nested;
          tc "roundtrip composed" (path_roundtrip "Alarms.Text.Body.Keywords[1]");
          tc "roundtrip plain" (path_roundtrip "A.B.C");
          tc "parent" test_path_parent;
          tc "malformed inputs" test_path_bad;
          prop_path_roundtrip;
        ] );
      ( "version-id",
        [
          tc "trunk" test_vid_trunk;
          tc "child labels" test_vid_child;
          tc "parse" test_vid_parse;
          tc "lexicographic order" test_vid_order;
          tc "invalid arguments" test_vid_invalid_args;
          prop_vid_roundtrip;
        ] );
      ( "ident",
        [
          tc "generator" test_ident_gen;
          tc "mark_used" test_ident_mark_used;
          tc "set builder" test_ident_set_builder;
          prop_ident_set_model;
          prop_ident_map_model;
        ] );
      ("sort", [ prop_array_sort ]);
      ( "error",
        [
          tc "combinators" test_error_combinators;
          tc "printing" test_error_printing;
          tc "ok_exn" test_ok_exn;
        ] );
      ( "retry",
        [
          tc "first try, no sleep" test_retry_first_try_no_sleep;
          tc "bounded attempts" test_retry_bounded_attempts;
          tc "transient then ok" test_retry_transient_then_ok;
          tc "permanent not retried" test_retry_permanent_not_retried;
          tc "custom should_retry" test_retry_custom_should_retry;
          tc "delay curve" test_retry_delay_curve;
          tc "on_retry hook" test_retry_on_retry_hook;
        ] );
      ( "retry-deadline",
        [
          tc "retries until the deadline" test_deadline_retries_until_deadline;
          tc "success midway" test_deadline_success_midway;
          tc "ignores the attempt count" test_deadline_ignores_attempt_count;
          tc "permanent not retried" test_deadline_permanent_not_retried;
          tc "already expired" test_deadline_already_expired;
        ] );
    ]
