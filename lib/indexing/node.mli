(** A node of the execution index tree: one dynamic construct instance.

    Nodes are mutable and recycled through the {!Construct_pool}; a
    reference held by shadow memory may therefore be stale. Staleness is
    detected by the paper's time-window check ([Tenter <= Th < Texit],
    Table II line 7): a recycled node's new [tenter] necessarily exceeds
    every timestamp recorded during its previous lifetime, because reuse
    requires [now - texit >= texit - tenter >= 0]. *)

type t = {
  mutable label : int;  (** head pc of the static construct *)
  mutable tenter : int;
  mutable texit : int;  (** 0 while the instance is active *)
  mutable parent : t;  (** {!none} for a root instance *)
  mutable is_func : bool;
}

val none : t
(** The parent of a root instance: a shared sentinel (its own parent),
    compared with [==]. A link to it costs no allocation, where an
    [option] would box one [Some] per construct instance. It is never
    pushed or recycled, and {!covers} is false on it for every time. *)

val make : unit -> t

val duration : t -> int
(** [texit - tenter] of a completed instance. *)

val active : t -> bool
(** An instance is active while [texit = 0] ([texit] is reset on entry,
    footnote 1 of the paper). *)

val covers : t -> int -> bool
(** [covers c th]: the Table II line-7 window check
    [tenter <= th < texit]; false for active or recycled nodes. *)

val pp : Format.formatter -> t -> unit
