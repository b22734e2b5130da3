(** Shared platform context handed to every peripheral: the IFP lattice,
    the active security policy, the run-time monitor, and the "public"
    (lattice-bottom) tag used for untainted data. *)

type t = {
  kernel : Sysc.Kernel.t;
  lat : Dift.Lattice.t;
  policy : Dift.Policy.t;
  monitor : Dift.Monitor.t;
  pub : Dift.Lattice.tag;
  prov : Trace.Provenance.t option;
      (** Provenance recorder, when the SoC runs with a tracer. *)
}

val create :
  ?prov:Trace.Provenance.t -> Sysc.Kernel.t -> Dift.Policy.t -> Dift.Monitor.t -> t

val taint_source : t -> origin:string -> ?addr:int -> Dift.Lattice.tag -> unit
(** Register a taint introduction (peripheral seeding [tag] into the
    platform) with the provenance recorder at current simulation time.
    No-op when no recorder is attached or [tag] is the public tag, so
    peripherals call it unconditionally. *)

val taint_via : t -> channel:string -> Dift.Lattice.tag -> unit
(** Note that tagged data travelled through a named transfer channel
    (e.g. the DMA engine). Same no-op conventions as {!taint_source}. *)

val output_allowed : t -> port:string -> data_tag:Dift.Lattice.tag -> bool
(** Clearance check at a named output interface: counts a check of
    [data_tag] against the port's required class in the policy (none if
    the port declares no clearance) and tells whether the flow is allowed.
    It runs on every byte a peripheral emits, so it allocates nothing; a
    refusal is reported with {!output_violation}. *)

val output_violation :
  t -> port:string -> data_tag:Dift.Lattice.tag -> string -> unit
(** Report a flow that {!output_allowed} refused to the monitor, with a
    detail string describing the data. *)

val declassify : t -> where:string -> from_tag:Dift.Lattice.tag -> Dift.Lattice.tag -> Dift.Lattice.tag
(** [declassify env ~where ~from_tag to_tag] records the declassification
    event and returns [to_tag]. Only trusted peripherals may call this
    (threat model, Section IV-B). *)

val check_store : t -> addr:int -> data_tag:Dift.Lattice.tag -> who:string -> unit
(** Integrity check for a store at a global address into a policy-protected
    region (used by bus masters other than the CPU, e.g. the DMA engine). *)
