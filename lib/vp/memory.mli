(** Tainted RAM: a sparse {!Rv32.Ram} of value and tag bytes, accessible
    through a TLM target socket and (for speed) exposed to the core's DMI
    fast path. *)

type t

val create : Env.t -> name:string -> size:int -> t

val size : t -> int
val ram : t -> Rv32.Ram.t
(** The backing pages (for DMI registration). Writes made through it
    bypass the write hook. *)

val socket : t -> Tlm.Socket.target
(** Target socket with a configurable per-access latency. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_tag : t -> int -> Dift.Lattice.tag
val write_tag : t -> int -> Dift.Lattice.tag -> unit
val read_word : t -> int -> int
(** Little-endian 32-bit read at a local offset. *)

val write_word : t -> int -> int -> unit

val fill_tags : t -> off:int -> len:int -> Dift.Lattice.tag -> unit

val load : t -> off:int -> Bytes.t -> unit
(** Blit [src] into the value bytes at [off], firing the write hook (the
    loader's entry point; writes through {!ram} would bypass
    invalidation). *)

val set_write_hook : t -> (int -> int -> unit) -> unit
(** Install a callback fired with [(offset, len)] after every mutation of
    the value or tag bytes through this module (TLM writes, the loader,
    direct accessors). The SoC uses it to invalidate the core's decoded
    basic-block cache on DMA-into-code and reclassification. Writes taken
    on the CPU's DMI fast path are reported by {!Rv32.Bus_if}'s own hook
    instead. *)

val tainted_regions : t -> baseline:Dift.Lattice.tag -> (int * int * Dift.Lattice.tag) list
(** Maximal runs of consecutive bytes whose tag differs from [baseline],
    as [(first_offset, last_offset, tag)] triples with a uniform tag per
    run — a taint map for diagnostics. *)

val save : t -> Snapshot.Codec.writer -> unit
(** Serialise contents and tag array (run-length encoded). *)

val restore : t -> Snapshot.Codec.reader -> unit
(** Counterpart of {!save} ([load] is the image loader); fires the write
    hook over the whole range so cached decoded blocks are invalidated. *)
