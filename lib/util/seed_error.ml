type t =
  | Unknown_class of string
  | Unknown_association of string
  | Unknown_role of string * string
  | Unknown_object of string
  | Unknown_item of string
  | Unknown_version of string
  | Unknown_procedure of string
  | Duplicate_name of string
  | Duplicate_class of string
  | Duplicate_association of string
  | Duplicate_version of string
  | Invalid_cardinality of string
  | Cardinality_violation of {
      element : string;
      subject : string;
      bound : string;
      count : int;
    }
  | Type_mismatch of { expected : string; got : string }
  | Membership_violation of {
      expected : string;
      got : string;
      context : string;
    }
  | Cycle_detected of string
  | Not_in_generalization of { item_class : string; target : string }
  | Vetoed of { procedure : string; reason : string }
  | Pattern_violation of string
  | Version_frozen of string
  | Unsaved_changes of string
  | Locked of { item : string; holder : string }
  | Invalid_operation of string
  | Schema_violation of string
  | Io_error of string
  | Io_transient of string
  | Corrupt of string
  | Deadlock of { victim : string; cycle : string list }

let pp ppf = function
  | Unknown_class c -> Fmt.pf ppf "unknown class %S" c
  | Unknown_association a -> Fmt.pf ppf "unknown association %S" a
  | Unknown_role (a, r) -> Fmt.pf ppf "association %S has no role %S" a r
  | Unknown_object n -> Fmt.pf ppf "unknown object %S" n
  | Unknown_item i -> Fmt.pf ppf "unknown item %S" i
  | Unknown_version v -> Fmt.pf ppf "unknown version %S" v
  | Unknown_procedure p -> Fmt.pf ppf "attached procedure %S is not registered" p
  | Duplicate_name n -> Fmt.pf ppf "an object named %S already exists" n
  | Duplicate_class c -> Fmt.pf ppf "class %S is already defined" c
  | Duplicate_association a -> Fmt.pf ppf "association %S is already defined" a
  | Duplicate_version v -> Fmt.pf ppf "version %S already exists" v
  | Invalid_cardinality c -> Fmt.pf ppf "invalid cardinality %s" c
  | Cardinality_violation { element; subject; bound; count } ->
    Fmt.pf ppf "cardinality violation on %s for %s: %s but count is %d"
      element subject bound count
  | Type_mismatch { expected; got } ->
    Fmt.pf ppf "type mismatch: expected %s, got %s" expected got
  | Membership_violation { expected; got; context } ->
    Fmt.pf ppf "membership violation in %s: expected an instance of %S, got %S"
      context expected got
  | Cycle_detected a -> Fmt.pf ppf "ACYCLIC association %S would become cyclic" a
  | Not_in_generalization { item_class; target } ->
    Fmt.pf ppf
      "class %S and %S do not belong to the same generalization hierarchy"
      item_class target
  | Vetoed { procedure; reason } ->
    Fmt.pf ppf "update vetoed by attached procedure %S: %s" procedure reason
  | Pattern_violation m -> Fmt.pf ppf "pattern violation: %s" m
  | Version_frozen v -> Fmt.pf ppf "version %s is frozen and cannot be modified" v
  | Unsaved_changes v ->
    Fmt.pf ppf
      "the current version (based on %s) has unsaved changes; save it or force"
      v
  | Locked { item; holder } ->
    Fmt.pf ppf "item %s is write-locked by client %s" item holder
  | Invalid_operation m -> Fmt.pf ppf "invalid operation: %s" m
  | Schema_violation m -> Fmt.pf ppf "schema violation: %s" m
  | Io_error m -> Fmt.pf ppf "i/o error: %s" m
  | Io_transient m -> Fmt.pf ppf "transient i/o error: %s" m
  | Corrupt m -> Fmt.pf ppf "corrupt storage: %s" m
  | Deadlock { victim; cycle } ->
    Fmt.pf ppf "deadlock detected (cycle: %a); aborted %s"
      Fmt.(list ~sep:(any " -> ") string)
      cycle victim

let to_string e = Fmt.str "%a" pp e

exception Error of t

let () =
  Printexc.register_printer (function
    | Error e -> Some (Fmt.str "Seed_error.Error (%a)" pp e)
    | _ -> None)

let fail e : ('a, t) result = Stdlib.Error e

let wrap_io f =
  try Stdlib.Ok (f ()) with
  | Sys_error m -> fail (Io_error m)
  | Unix.Unix_error (((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK) as e), fn, arg)
    ->
    (* interrupted/would-block syscalls succeed when reissued: transient *)
    fail
      (Io_transient (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
  | Unix.Unix_error (e, fn, arg) ->
    fail (Io_error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))

let ok_exn = function Stdlib.Ok v -> v | Stdlib.Error e -> raise (Error e)

let ( let* ) r f =
  match r with Stdlib.Ok v -> f v | Stdlib.Error _ as e -> e

let rec iter_result f = function
  | [] -> Stdlib.Ok ()
  | x :: xs -> (
    match f x with Stdlib.Ok () -> iter_result f xs | Stdlib.Error _ as e -> e)

let map_result f xs =
  let rec go acc = function
    | [] -> Stdlib.Ok (List.rev acc)
    | x :: xs -> (
      match f x with
      | Stdlib.Ok y -> go (y :: acc) xs
      | Stdlib.Error e -> Stdlib.Error e)
  in
  go [] xs
