(** Address-mapped interconnect (cf. the VP's TLM bus).

    A router owns a target socket; incoming transactions are dispatched by
    global address to the mapped target whose range contains it, with the
    payload address rewritten to a target-local offset for the duration of
    the downstream call. Unclaimed addresses complete with
    [Address_error].

    Dispatch binary-searches a sorted-by-address array rebuilt on every
    {!map} (mapping is construction-time, dispatch is per transaction), so
    routing costs O(log n) in the number of mapped targets rather than a
    list scan in mapping order. *)

type t

val create : name:string -> unit -> t

val map : t -> lo:int -> hi:int -> Socket.target -> unit
(** Map [lo..hi] (inclusive) to a target. Raises [Invalid_argument] if the
    range is empty or overlaps an existing mapping. *)

val target_socket : t -> Socket.target
(** The socket initiators bind to. *)

val mappings : t -> (int * int * string) list
(** [(lo, hi, target-name)] triples in mapping order, for diagnostics. *)

val set_observer : t -> (Payload.t -> string -> unit) option -> unit
(** Install (or clear) a transaction observer, called after each
    successfully dispatched transaction returns — with the payload's
    global address restored — together with the target's name. Unmapped
    (address-error) transactions are not reported. Used by the tracing
    subsystem; one load-and-branch per transaction when unset. *)
