type t = {
  kernel : Sysc.Kernel.t;
  lat : Dift.Lattice.t;
  policy : Dift.Policy.t;
  monitor : Dift.Monitor.t;
  pub : Dift.Lattice.tag;
  prov : Trace.Provenance.t option;
}

let create ?prov kernel policy monitor =
  let lat = policy.Dift.Policy.lattice in
  let pub =
    match Dift.Lattice.bottom lat with
    | Some b -> b
    | None -> policy.Dift.Policy.default_tag
  in
  { kernel; lat; policy; monitor; pub; prov }

let taint_source env ~origin ?addr tag =
  match env.prov with
  | Some p when tag <> env.pub ->
      ignore
        (Trace.Provenance.source p ~origin ?addr
           ~time:(Sysc.Kernel.now env.kernel)
           tag)
  | Some _ | None -> ()

let taint_via env ~channel tag =
  match env.prov with
  | Some p when tag <> env.pub -> Trace.Provenance.record_via p ~channel tag
  | Some _ | None -> ()

let output_allowed env ~port ~data_tag =
  let required = Dift.Policy.output_clearance_of env.policy port in
  required < 0
  ||
  (Dift.Monitor.count_check env.monitor;
   Dift.Lattice.allowed_flow env.lat data_tag required)

let output_violation env ~port ~data_tag detail =
  Dift.Monitor.violation env.monitor
    {
      Dift.Violation.kind = Dift.Violation.Output_clearance port;
      data_tag;
      required_tag = Dift.Policy.output_clearance_of env.policy port;
      pc = None;
      detail;
    }

let declassify env ~where ~from_tag to_tag =
  Dift.Monitor.report env.monitor
    (Dift.Monitor.Declassified { where; from_tag; to_tag });
  to_tag

let check_store env ~addr ~data_tag ~who =
  match Dift.Policy.store_required_at env.policy addr with
  | None -> ()
  | Some (region, required) ->
      Dift.Monitor.count_check env.monitor;
      if not (Dift.Lattice.allowed_flow env.lat data_tag required) then
        Dift.Monitor.violation env.monitor
          {
            Dift.Violation.kind = Dift.Violation.Store_integrity region;
            data_tag;
            required_tag = required;
            pc = None;
            detail = Printf.sprintf "%s store to 0x%08x" who addr;
          }
