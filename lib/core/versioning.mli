(** The version tree and state resolution.

    Versions are created explicitly by taking a snapshot of the database;
    they form a tree whose decimal labels reflect the history (paper,
    §Versions). Only the {e changed} items are stamped at each snapshot
    (delta storage); the view of version [v] resolves each item to the
    stamp of the nearest ancestor of [v] in this tree — the tree
    generalization of the paper's "greatest version number that is less
    than or equal to n".

    The tree is a persistent value: [derive]/[delete] return a new tree,
    so it lives inside the copy-on-write database root and pinned
    snapshots keep resolving against the tree they were taken with. *)

open Seed_util

type node = {
  vid : Version_id.t;
  parent : Version_id.t option;  (** [None] for first-trunk versions *)
  children_rev : Version_id.t list;
      (** derived versions, newest first (prepend keeps creation O(1));
          read through {!children} for creation order *)
  seq : int;  (** global creation order *)
  schema_rev : int;  (** schema revision in force when the snapshot was taken *)
  next_branch : int;  (** next branch index to hand out *)
  ancestors : Version_id.t list;
      (** [vid] first, then the parent chain up to a trunk root —
          precomputed at creation (parents are immutable and only leaves
          can be deleted, so the chain never goes stale) *)
}

type t

val empty : t

val create : unit -> t
(** Alias of {!empty} for call sites that read better imperatively. *)

val is_empty : t -> bool

val mem : t -> Version_id.t -> bool

val find : t -> Version_id.t -> node option

val find_res : t -> Version_id.t -> (node, Seed_error.t) result

val children : node -> Version_id.t list
(** Directly derived versions, in creation order. *)

val has_children : node -> bool

val derive :
  t ->
  base:Version_id.t option ->
  schema_rev:int ->
  (Version_id.t * t, Seed_error.t) result
(** Allocate the next version label derived from [base] and record it:
    continuing from the latest trunk version (or from nothing) extends
    the trunk ([m.0] → [(m+1).0]); deriving from any other version
    opens a branch ([m.0] → [m.k], branch [l] → [l.k]). *)

val ancestors : t -> Version_id.t -> Version_id.t list
(** [v] first, then its parent chain up to a trunk root. Includes the
    implicit trunk predecessors: the parent of trunk version [m.0] is
    [(m-1).0]. *)

val state_at : t -> Version_id.t -> Item.t -> Item.state option
(** Resolve an item's state in the view of a version: the stamp at the
    nearest ancestor. [None] when the item does not exist there. The
    precomputed ancestor chain plus the item's stamp map make this
    O(depth × log stamps) without rebuilding the chain per call;
    applied to a version alone, it looks the chain up once for a sweep
    over many items. *)

val delete : t -> Version_id.t -> (t, Seed_error.t) result
(** Remove a leaf version. Versions with descendants cannot be deleted
    (their views depend on the deleted stamps). *)

val all : t -> node list
(** All versions in creation order. *)

val since : t -> Version_id.t -> node list
(** Versions created at or after the given one, in creation order —
    the basis of "find all versions ... beginning with version 2.0". *)

(** {1 Persistence support} *)

type raw = {
  r_vid : Version_id.t;
  r_parent : Version_id.t option;
  r_seq : int;
  r_schema_rev : int;
  r_next_branch : int;
}

val dump : t -> int * raw list
(** [(trunk_count, nodes)] in creation order. *)

val restore : trunk:int -> nodes:raw list -> t
(** Rebuild a tree from a {!dump}; children lists, ancestor chains and
    the sequence counter are recomputed. *)
