(** Universal memory values.

    The paper's memory locations hold arbitrary (unbounded) values; several
    protocols store structured data — the swap algorithm of Section 8 writes
    lap vectors tagged with a process id and sequence number, and the
    ℓ-buffer history simulation of Section 6 writes (history, value) pairs.
    This single value type lets every instruction set share one machine. *)

type t =
  | Bot                (** the distinguished "unwritten" value, ⊥ *)
  | Unit
  | Int of int
  | Big of Bignum.t
  | Pair of t * t
  | Vec of t array
  | Tag of int * int * t
      (** [Tag (pid, seq, payload)]: a payload made unique by the writer's
          id and a per-writer sequence number, as Sections 6 and 8 require. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val reject : string -> t -> 'a
(** [reject prefix v] raises [Invalid_argument] with exactly the message
    [Format.kasprintf invalid_arg "%s %a" prefix pp v] raises, byte for
    byte, line breaks in wide values included.  [Int], [Bot] and [Unit] are
    printed without [Format]; every other value goes through it.  Guards
    that refuse a malformed value call this, so refusing a scalar costs no
    [Format] pass. *)

val to_int_exn : t -> int
(** @raise Invalid_argument if the value is not [Int _]. *)

val to_big_exn : t -> Bignum.t
(** Accepts [Big _] and [Int _].
    @raise Invalid_argument otherwise. *)

val untag : t -> t
(** Strips an outer [Tag] if present. *)

val observe_int : t -> int option
(** The integer view of a value, for property observers: [Int i] is [Some i],
    [Big b] is [Some] its int when it fits, a [Tag] is observed through to
    its payload; structured values ([Bot], [Unit], [Pair], [Vec]) observe as
    [None].  The standard implementation of {!Iset.S.observe_result} for
    instruction sets whose results are {!t}. *)
