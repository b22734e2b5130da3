(** Security policies: classification + IFP + clearance (Section IV-A).

    A policy bundles the IFP lattice with
    - {e classification}: security classes assigned to data entering the
      system (initial memory regions, peripheral sources);
    - {e clearance}: classes required at output interfaces and execution
      units (instruction fetch, branch decisions, memory addressing);
    - {e store integrity}: classes required to overwrite protected memory
      regions (used by the per-byte immobilizer fix of Section VI-A). *)

type region = {
  r_name : string;
  lo : int;  (** First address of the region (inclusive). *)
  hi : int;  (** Last address of the region (inclusive). *)
  r_tag : Lattice.tag;
}

type ecall_gate = {
  g_clearance : Lattice.tag;
      (** Class that every ecall argument register (a0..a5) must be allowed
          to flow to; a higher class is a violation. *)
  g_declass : Lattice.tag;
      (** Class the arguments are downgraded to when the gate admits them
          (an explicit, monitored declassification point). *)
}

type t = {
  lattice : Lattice.t;
  default_tag : Lattice.tag;
      (** Class given to data with no explicit classification. *)
  classification : region list;
      (** Initial classes for memory regions, applied by the loader. *)
  output_clearance : (string * Lattice.tag) list;
      (** Required class per named output interface. *)
  exec_fetch : Lattice.tag option;
      (** Clearance of the instruction-fetch unit, if checked. *)
  exec_branch : Lattice.tag option;
      (** Clearance of branch / jump / trap-vector decisions, if checked. *)
  exec_mem_addr : Lattice.tag option;
      (** Clearance of load/store effective addresses, if checked. *)
  store_clearance : region list;
      (** Protected regions: a store of data with class [x] into the region
          is allowed iff [allowed_flow x r_tag]. *)
  trap_csr : Lattice.tag option;
      (** Clearance of the trap-critical CSRs (mtvec, mepc), if checked:
          tainted data must not choose where a machine-mode handler runs. *)
  ecall_gate : ecall_gate option;
      (** Declassification gate applied to the argument registers on a real
          (non-exit) ecall trap, if declared. *)
}

val make :
  lattice:Lattice.t ->
  default_tag:Lattice.tag ->
  ?classification:region list ->
  ?output_clearance:(string * Lattice.tag) list ->
  ?exec_fetch:Lattice.tag ->
  ?exec_branch:Lattice.tag ->
  ?exec_mem_addr:Lattice.tag ->
  ?store_clearance:region list ->
  ?trap_csr:Lattice.tag ->
  ?ecall_gate:ecall_gate ->
  unit ->
  t

val region : name:string -> lo:int -> hi:int -> tag:Lattice.tag -> region
(** Raises [Invalid_argument] if [hi < lo]. *)

val classify_at : t -> int -> Lattice.tag
(** Class of address [addr] under the policy's classification (first
    matching region wins; [default_tag] otherwise). *)

val store_required_at : t -> int -> (string * Lattice.tag) option
(** Required integrity class for a store at [addr], if the address lies in a
    protected region. *)

val store_clearance_at : t -> int -> Lattice.tag
(** Like {!store_required_at}, but returns only the class, or [-1] outside
    every protected region, and allocates nothing: the per-store check
    calls it for every byte written. *)

val output_clearance_of : t -> string -> Lattice.tag
(** Clearance of a named output interface, or [-1] if the port declares
    none. Allocation-free: output peripherals look it up for every byte
    they emit. *)

val unrestricted : Lattice.t -> default_tag:Lattice.tag -> t
(** A policy with no checks at all (the plain-VP flavour). *)

val validate : t -> (unit, string) result
(** Sanity-check a policy against its lattice: every tag in range, every
    region well-formed, and no two classification regions with different
    classes sharing a byte unless one strictly precedes the other in the
    list (first-match-wins shadowing is reported as an error only when the
    shadowed region can never apply). *)

val pp : Format.formatter -> t -> unit
