(** Deterministic frame-level fault injection — {!Seed_storage.Faulty_io}
    for the wire.

    One instance models one direction of one connection. Every frame
    passed to {!apply} is, per a seeded deterministic generator,
    delivered, dropped, duplicated, corrupted (one bit flip), truncated,
    or delayed behind the next frame. Asymmetric configurations model
    one-way partitions ([drop = 1.0] on one side); cutting the
    connection mid-request is the harness's job (stop delivering and
    {!cut} the backlog).

    The chaos suite drives the server core through a pair of these and
    asserts the global invariants: the server never crashes or wedges,
    no lock outlives its holder's session lease, and replayed
    request ids never double-apply a check-in. *)

type config = {
  seed : int;  (** determinism: same seed, same schedule *)
  drop : float;  (** per-frame probability the frame vanishes *)
  dup : float;  (** delivered twice *)
  corrupt : float;  (** one bit flipped (CRC catches it downstream) *)
  truncate : float;  (** cut short (framing error downstream) *)
  delay : float;  (** held back until the next send (delivery lags) *)
}

val quiet : config
(** All rates zero — a transparent wire. *)

type t

val create : config -> t

val apply : t -> string -> string list
(** [apply t frame] is the list of frames the wire actually delivers at
    this point, in order: any previously delayed frames, then this
    frame's fate (absent, once, twice, mangled). *)

val flush : t -> string list
(** Deliver anything still held by a delay. *)

val cut : t -> unit
(** Drop held frames — the connection died with them in flight. *)

val injected : t -> int
(** Number of faults injected so far (monitoring the schedule). *)
