(** Sparse, page-granular tainted RAM: the layout of a RAM's value bytes
    and of the tag byte kept beside each of them (the VP+ memory of
    Section V-B1).

    Each of the two planes is split into {!page_size}-byte pages. Every
    page starts as a process-wide, read-only page filled with one byte
    (zeros for values, the default tag for tags) and is copied on the
    first write that changes it, so creating a RAM costs one directory
    entry per page rather than its size, and the untouched remainder is
    never scanned when it is saved. Shared pages are created once per
    byte value and may be read from any domain.

    All accessors are bounds-checked and raise [Invalid_argument] outside
    the RAM. Multi-byte accesses are little-endian; one that straddles a
    page boundary is carried out byte by byte. *)

type t

type plane
(** The value bytes or the tag bytes of a RAM. *)

val page_size : int
(** Bytes per page (16 KiB). *)

val create : size:int -> default_tag:int -> t
(** All values zero, every tag [default_tag] (a byte). *)

val size : t -> int
val data : t -> plane
val tags : t -> plane

val get : plane -> width:int -> int -> int
(** [get p ~width off]: the zero-extended little-endian value of the
    [width] (1, 2 or 4) bytes at [off]. On the tag plane this packs the
    tags of the bytes, byte [i]'s tag in bits [8i .. 8i+7]. *)

val set : plane -> width:int -> int -> int -> unit
(** [set p ~width off v]: write the [width] low bytes of [v]. *)

val fill : plane -> off:int -> len:int -> int -> unit
(** Set [len] bytes from [off] to one byte value; pages covered whole
    become shared. *)

val blit_in : Bytes.t -> int -> plane -> int -> int -> unit
(** [blit_in src soff p off len] copies [len] bytes of [src] from [soff]
    into [p] at [off]. *)

val blit_out : plane -> int -> Bytes.t -> int -> int -> unit
(** [blit_out p off dst doff len] copies [len] bytes of [p] from [off]
    into [dst] at [doff]. *)

val iter_runs : plane -> (int -> char -> unit) -> unit
(** [iter_runs p f] calls [f n c] for each maximal run of [n] equal bytes
    [c], in address order, covering the whole plane. Shared pages are
    not scanned. *)

val private_pages : t -> int
(** Pages copied so far, over both planes (a diagnostic). *)

val save : t -> Snapshot.Codec.writer -> unit
(** The value plane, then the tag plane, each as
    {!Snapshot.Codec.put_bytes_rle} would encode its flat image — the
    bytes are identical, only shared pages are not scanned. *)

val restore : t -> Snapshot.Codec.reader -> unit
(** Counterpart of {!save}: replaces both planes' contents. A run covering
    a whole page leaves (or makes) the page shared. Malformed input raises
    {!Snapshot.Codec.Corrupt}; it never writes outside the RAM, but the
    planes may be partly overwritten when it is raised. *)
