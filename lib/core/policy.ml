type region = { r_name : string; lo : int; hi : int; r_tag : Lattice.tag }
type ecall_gate = { g_clearance : Lattice.tag; g_declass : Lattice.tag }

type t = {
  lattice : Lattice.t;
  default_tag : Lattice.tag;
  classification : region list;
  output_clearance : (string * Lattice.tag) list;
  exec_fetch : Lattice.tag option;
  exec_branch : Lattice.tag option;
  exec_mem_addr : Lattice.tag option;
  store_clearance : region list;
  trap_csr : Lattice.tag option;
  ecall_gate : ecall_gate option;
}

let region ~name ~lo ~hi ~tag =
  if hi < lo then invalid_arg "Policy.region: hi < lo";
  { r_name = name; lo; hi; r_tag = tag }

let make ~lattice ~default_tag ?(classification = []) ?(output_clearance = [])
    ?exec_fetch ?exec_branch ?exec_mem_addr ?(store_clearance = []) ?trap_csr
    ?ecall_gate () =
  {
    lattice;
    default_tag;
    classification;
    output_clearance;
    exec_fetch;
    exec_branch;
    exec_mem_addr;
    store_clearance;
    trap_csr;
    ecall_gate;
  }

let find_region regions addr =
  List.find_opt (fun r -> addr >= r.lo && addr <= r.hi) regions

let classify_at p addr =
  match find_region p.classification addr with
  | Some r -> r.r_tag
  | None -> p.default_tag

let store_required_at p addr =
  match find_region p.store_clearance addr with
  | Some r -> Some (r.r_name, r.r_tag)
  | None -> None

(* The allocation-free lookups below are plain recursive walks: they run
   per stored and per output byte, where a predicate closure or an option
   would allocate. *)
let rec store_clearance regions addr =
  match regions with
  | [] -> -1
  | r :: rest ->
      if addr >= r.lo && addr <= r.hi then r.r_tag
      else store_clearance rest addr

let store_clearance_at p addr = store_clearance p.store_clearance addr

let rec port_clearance ports port =
  match ports with
  | [] -> -1
  | (q, tag) :: rest ->
      if String.equal q port then tag else port_clearance rest port

let output_clearance_of p port = port_clearance p.output_clearance port

let unrestricted lattice ~default_tag =
  make ~lattice ~default_tag ()

let validate p =
  let n = Lattice.size p.lattice in
  let bad = ref [] in
  let check_tag what tag =
    if tag < 0 || tag >= n then
      bad := Printf.sprintf "%s: tag %d out of range (lattice has %d classes)" what tag n :: !bad
  in
  check_tag "default_tag" p.default_tag;
  List.iter (fun r -> check_tag ("classification " ^ r.r_name) r.r_tag)
    p.classification;
  List.iter (fun (port, tag) -> check_tag ("output " ^ port) tag)
    p.output_clearance;
  Option.iter (check_tag "exec_fetch") p.exec_fetch;
  Option.iter (check_tag "exec_branch") p.exec_branch;
  Option.iter (check_tag "exec_mem_addr") p.exec_mem_addr;
  Option.iter (check_tag "trap_csr") p.trap_csr;
  Option.iter
    (fun g ->
      check_tag "ecall_gate clearance" g.g_clearance;
      check_tag "ecall_gate declass" g.g_declass;
      if not (Lattice.allowed_flow p.lattice g.g_declass g.g_clearance) then
        bad :=
          "ecall_gate: declassified class does not meet its own clearance"
          :: !bad)
    p.ecall_gate;
  List.iter (fun r -> check_tag ("store_clearance " ^ r.r_name) r.r_tag)
    p.store_clearance;
  (* A later classification region fully hidden by an earlier one is a
     policy bug: it can never apply. *)
  let rec shadowing = function
    | [] -> ()
    | r :: rest ->
        List.iter
          (fun r' ->
            if r'.lo >= r.lo && r'.hi <= r.hi && r'.r_tag <> r.r_tag then
              bad :=
                Printf.sprintf
                  "classification %s is fully shadowed by earlier region %s"
                  r'.r_name r.r_name
                :: !bad)
          rest;
        shadowing rest
  in
  shadowing p.classification;
  match List.rev !bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " msgs)

let pp fmt p =
  let nm = Lattice.name p.lattice in
  Format.fprintf fmt "@[<v>policy {default=%s}" (nm p.default_tag);
  List.iter
    (fun r ->
      Format.fprintf fmt "@,  classify %s [0x%08x..0x%08x] as %s" r.r_name r.lo
        r.hi (nm r.r_tag))
    p.classification;
  List.iter
    (fun (port, tag) ->
      Format.fprintf fmt "@,  output %s requires %s" port (nm tag))
    p.output_clearance;
  let exec label = function
    | Some tag -> Format.fprintf fmt "@,  exec %s clearance %s" label (nm tag)
    | None -> ()
  in
  exec "fetch" p.exec_fetch;
  exec "branch" p.exec_branch;
  exec "mem-addr" p.exec_mem_addr;
  exec "trap-csr" p.trap_csr;
  (match p.ecall_gate with
  | Some g ->
      Format.fprintf fmt "@,  ecall gate clearance %s declassifies to %s"
        (nm g.g_clearance) (nm g.g_declass)
  | None -> ());
  List.iter
    (fun r ->
      Format.fprintf fmt "@,  protect %s [0x%08x..0x%08x] requires %s" r.r_name
        r.lo r.hi (nm r.r_tag))
    p.store_clearance;
  Format.fprintf fmt "@]"
