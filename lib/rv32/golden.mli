(** A golden-model RV32IM interpreter: an independent, deliberately naive
    re-implementation of the ISA semantics over a sparse memory image, with
    no taint, no kernel, no peripherals and no decode caching.

    Used purely for differential verification of the production {!Core}
    (cf. the coverage-guided ISS-fuzzing work the paper cites): the same
    program run here and on the VP must produce identical registers,
    memory, CSRs and trap behaviour.

    The machine-mode architecture (mstatus stacking, mtvec direct and
    vectored modes, mepc/mcause/mtval, CSR privilege and WARL masks,
    U-mode, mret) is re-implemented locally — nothing is shared with
    {!Csr} — so a trap-semantics bug on either side surfaces as a
    differential. A synchronous trap with no handler installed
    ([mtvec] base 0) terminates the run, mirroring the VP's [Fatal_trap]
    convention; with a handler it vectors exactly like the VP. The model
    has no interrupt sources ([mip] always reads 0) and, matching the
    production core's one-cycle-per-instruction timing, every counter CSR
    reads as the retired-instruction count. *)

type t

val create : mem_base:int -> mem_size:int -> t

val load : t -> addr:int -> string -> unit
(** Copy bytes into memory. Raises [Invalid_argument] out of range. *)

val set_pc : t -> int -> unit
val set_reg : t -> int -> int -> unit
val reg : t -> int -> int
val pc : t -> int

val priv : t -> int
(** Current privilege level (3 = machine, 0 = user). *)

val mem_byte : t -> int -> int

type stop =
  | Exited of int  (** The machine-mode exit ecall (a7 = 93). *)
  | Trap of int
      (** A trap with no handler installed; the would-be mcause. *)
  | Limit  (** Instruction budget exhausted. *)

val run : t -> max_insns:int -> stop * int
(** Execute until a stopping condition; returns the reason and the number
    of instructions retired. *)
