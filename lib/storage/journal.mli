(** Append-only journal with CRC-framed, epoch-tagged transactions.

    Frame layout (little-endian):
    [magic u32 | epoch u32 | payload length u32 | crc32 u32 | payload].
    One frame is one whole transaction: its payload is the
    transaction's records encoded as a {!Codec} string list, and its CRC
    (over epoch, length and payload) is the transaction's integrity
    check. No byte of a transaction lies outside a CRC, so a crash or a
    flipped bit anywhere in a transaction loses all of it and nothing
    else.

    The {e epoch} is the compaction epoch the frame belongs to: a store
    bumps it on every successful compaction and tags the snapshot header
    with the same number, so a stale journal left behind by a crash
    mid-compaction is detected by epoch mismatch and skipped rather than
    replayed (see {!Store}).

    Recovery reads frames until end of file. Damage (partial frame, bad
    magic, CRC mismatch, undecodable payload) does not stop the scan:
    the reader records the damaged region, hunts forward for the next
    offset where a whole valid frame parses (magic + CRC resync), and
    continues — a damaged mid-file transaction is {e quarantined}, not
    fatal. Damage that reaches end of file is the classic torn tail — a
    transaction cut short by a crash — truncatable as before. A journal
    whose first frame carries an earlier release's magic ([SEE3] record
    frames, [SEEC] group markers) is refused by {!scan}. *)

type t
(** An open journal, positioned for appending. *)

type sync_policy = [ `Always_fsync | `Flush_only ]
(** Durability of {!append}:
    - [`Always_fsync] — every append (one batch of transactions) is
      written and fsync'd before returning: one fsync per batch, and an
      acknowledged transaction survives any crash.
    - [`Flush_only] — every append is written to the OS before
      returning; it survives a process crash but not a power failure
      before the next {!sync}. *)

val open_ :
  ?io:Io.t -> ?sync:sync_policy -> ?epoch:int -> string ->
  (t, Seed_util.Seed_error.t) result
(** Opens (creating if necessary) the journal at [path] for appending.
    Records are tagged with [epoch] (default 0); durability of appends
    follows [sync] (default [`Flush_only]). *)

(** {2 Building frames}

    A transaction's records are encoded once each, straight into the
    frame that carries them; the header and CRC are written in place
    when the frame is sealed. *)

type writer
(** A frame under construction, its two buffers reused from frame to
    frame. *)

val writer : unit -> writer

val start : writer -> records:int -> unit
(** Begins a frame of [records] records, discarding any frame the
    writer held. *)

val add : writer -> (Codec.Writer.t -> 'a -> unit) -> 'a -> unit
(** [add w encode x] adds one record: what [encode] writes for [x]. *)

val seal : writer -> epoch:int -> string
(** The whole frame, stamped with [epoch]: one string, ready for
    {!append}. Raises [Invalid_argument] unless exactly the records
    {!start} announced were added. *)

val frame : epoch:int -> string list -> string
(** The sealed frame of a transaction whose records are encoded
    already. *)

val frame_records : string -> int
(** The number of records a sealed frame holds. *)

(** {2 Appending} *)

val append : t -> string list -> (unit, Seed_util.Seed_error.t) result
(** Appends a batch of sealed frames, one per transaction, in {e one}
    physical write (and, under [`Always_fsync], one fsync) — the
    group-commit coalescing primitive used by {!Commit_daemon}. A lone
    frame is written as it is; a frame sealed under another epoch than
    the journal's is restamped. Each transaction keeps its own
    atomicity: a crash mid-batch leaves every transaction either whole
    or damaged, and recovery drops a damaged one whole. An empty batch
    is a no-op.

    A failed write or fsync cuts the journal back to the end of the
    last frame that landed (and, under [`Always_fsync], fsyncs the
    cut), so no byte of the failed batch can be replayed. If the cut
    fails too, every later append is refused until the journal is
    reopened. *)

val sync : t -> (unit, Seed_util.Seed_error.t) result
(** Fsyncs the journal file. *)

val close : t -> unit
(** Releases the descriptor; errors are swallowed — call {!sync} first
    when durability matters. *)

(** {2 Recovery-side reads} *)

type frame = {
  f_epoch : int;  (** compaction epoch the transaction was appended under *)
  f_offset : int;  (** byte offset of the frame's header in the file *)
  f_bytes : int;  (** frame size: header plus payload *)
  f_records : string list;  (** the transaction's records, in order *)
}

type damage = {
  d_offset : int;  (** where the damaged region starts *)
  d_end : int;
      (** where scanning resynchronized (equals the file size when no
          later frame boundary was found — a torn tail) *)
  d_reason : string;  (** e.g. ["truncated payload"], ["crc mismatch"] *)
}

type scan_result = {
  frames : frame list;  (** intact transactions, in append order *)
  scan_damage : damage list;
      (** damaged regions, in file order; [[]] when the file is intact *)
  file_size : int;
}

val scan : ?io:Io.t -> string -> (scan_result, Seed_util.Seed_error.t) result
(** Reads every intact frame of the journal at [path], skipping over
    damaged regions by magic/CRC resynchronization. A missing file
    yields an empty, undamaged result. Damage is data, reported in the
    result; the errors are I/O failures and an [Invalid_operation]
    naming [path] when its first frame carries an earlier release's
    magic. *)

val tail_damage : scan_result -> damage option
(** The damaged region reaching end of file, if any — a torn tail that
    can be repaired by truncating at its [d_offset]. *)

val quarantined : scan_result -> damage list
(** Mid-file damaged regions (everything but the {!tail_damage}):
    skipped during replay and left in place, pending {!Store.fsck}
    [~repair] rewriting the journal. *)

val decode_records : string -> string list option
(** A frame payload's records; [None] when the payload does not decode
    (never an exception). *)

val truncate :
  ?io:Io.t -> ?len:int -> string -> (unit, Seed_util.Seed_error.t) result
(** Cuts the journal at [path] to [len] bytes (default 0, creating the
    file if missing), then fsyncs the file and its directory so the cut
    — and with it, compaction — is durable before the caller proceeds. *)
