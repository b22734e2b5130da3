type t = {
  ring : Ring.t;
  prov : Provenance.t;
  lat : Dift.Lattice.t;
  mutable disasm : int -> string;
  mutable on_record : (Event.t -> unit) option;
  mutable on_graph : (Event.t -> unit) option;
}

let default_disasm w = Printf.sprintf ".word 0x%08x" w

let create ?(ring_size = 4096) lat =
  {
    ring = Ring.create ring_size;
    prov = Provenance.create lat;
    lat;
    disasm = default_disasm;
    on_record = None;
    on_graph = None;
  }

let set_disasm t f = t.disasm <- f
let set_on_record t f = t.on_record <- f
let set_on_graph t f = t.on_graph <- f
let events_recorded t = Ring.total t.ring

(* The slot is recycled on the next record_*: observers must consume (or
   copy) the event before returning. *)
let observed t e =
  (match t.on_record with None -> () | Some f -> f e);
  match t.on_graph with None -> () | Some f -> f e

let no_text = ""

let record_insn t ~time ~pc ~word ~tag ~tainted =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Insn;
  e.Event.addr <- pc;
  e.Event.data <- word;
  e.Event.tag <- tag;
  e.Event.tainted <- tainted;
  (* Most slots already hold this very string (instructions dominate
     the stream): skip the write barrier then. *)
  if e.Event.text != no_text then e.Event.text <- no_text;
  observed t e

let record_tlm t ~time ~write ~addr ~len ~tag ~target =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- (if write then Event.Tlm_write else Event.Tlm_read);
  e.Event.addr <- addr;
  e.Event.data <- len;
  e.Event.tag <- tag;
  e.Event.tainted <- false;
  (* Each slot tends to hold the name of the target it last recorded:
     skip the write barrier then, as [record_insn] does. *)
  if e.Event.text != target then e.Event.text <- target;
  observed t e

let record_trap t ~time ~addr ~code ~text =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Trap;
  e.Event.addr <- addr;
  e.Event.data <- code;
  e.Event.tag <- 0;
  e.Event.tainted <- false;
  e.Event.text <- text;
  observed t e

let record_violation t ~time ~pc ~tag ~what =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Violation;
  e.Event.addr <- pc;
  e.Event.data <- 0;
  e.Event.tag <- tag;
  e.Event.tainted <- true;
  e.Event.text <- what;
  observed t e

let record_declass t ~time ~from_tag ~to_tag ~where =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Declass;
  e.Event.addr <- 0;
  e.Event.data <- from_tag;
  e.Event.tag <- to_tag;
  e.Event.tainted <- false;
  e.Event.text <- where;
  observed t e

let record_note t ~time text =
  let e = Ring.emit t.ring in
  e.Event.time <- time;
  e.Event.kind <- Event.Note;
  e.Event.addr <- 0;
  e.Event.data <- 0;
  e.Event.tag <- 0;
  e.Event.tainted <- false;
  e.Event.text <- text;
  observed t e
