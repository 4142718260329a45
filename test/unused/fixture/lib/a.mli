val shared : int
(** Dead: nothing calls it, though [B.shared] has its name and is used. *)

val probe : unit -> int
(** Test only: only test/ calls it. *)
