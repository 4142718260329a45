val ( let* ) : 'a option -> ('a -> 'b option) -> 'b option
(** Used only as a binding operator. *)
