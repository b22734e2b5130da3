(** TLM-2.0-style generic payload carrying tainted data.

    As in the paper, the data array of a transaction is an array of tainted
    bytes: each data byte travels with its security-class tag, so
    information flow is tracked through the interconnect and into the
    peripherals. Values and tags are stored in two parallel byte buffers. *)

type command = Read | Write

type response =
  | Ok_resp
  | Address_error  (** No target claims the address. *)
  | Command_error  (** Target rejected the access (size, alignment, ...). *)

type t = {
  mutable cmd : command;
  mutable addr : int;
      (** Global address as issued; routers rewrite it to a target-local
          offset for the duration of the downstream call. *)
  data : Bytes.t;  (** Byte values. *)
  tags : Bytes.t;  (** One security tag per data byte. *)
  mutable resp : response;
}

val create : ?cmd:command -> ?addr:int -> len:int -> default_tag:Dift.Lattice.tag -> unit -> t
(** Fresh payload with [len] zero bytes, all tagged [default_tag]. *)

val length : t -> int

val get_byte : t -> int -> int
val set_byte : t -> int -> int -> unit
val get_tag : t -> int -> Dift.Lattice.tag
val set_tag : t -> int -> Dift.Lattice.tag -> unit

(** {2 Whole-payload access}

    These read or write every byte of the payload at once. Payloads of 1, 2
    or 4 bytes — every transaction the CPU and the DMA issue — take a
    single word-wide access and allocate nothing; other lengths go byte by
    byte. Values are little-endian and meaningful up to 7 bytes. *)

val get_word : t -> int
(** Unsigned little-endian value of the payload's bytes. *)

val set_word : t -> int -> unit
(** Store the low [length] bytes of the value, little-endian. *)

val packed_tags : t -> int
(** The byte tags packed into one int, byte [i]'s tag in bits [8i..8i+7]. *)

val set_all_tags : t -> Dift.Lattice.tag -> unit

val set_word_tagged : t -> int -> Dift.Lattice.tag -> unit
(** {!set_word}, then {!set_all_tags}: a register read's reply. *)

val word_tag : Dift.Lattice.t -> t -> Dift.Lattice.tag
(** LUB of the tags of all bytes. Runs of equal tags take no lattice
    lookup. *)

val is_read : t -> bool
val is_write : t -> bool
val ok : t -> bool

val pp : Format.formatter -> t -> unit
