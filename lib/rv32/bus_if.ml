exception Bus_error of { addr : int; write : bool }

type dmi = { base : int; limit : int; data : Ram.plane; tags : Ram.plane }

type t = {
  socket : Tlm.Socket.initiator;
  lat : Dift.Lattice.t;
  default_tag : int;
  tracking : bool;
  mutable dmi : dmi option;
  p1 : Tlm.Payload.t;
  p2 : Tlm.Payload.t;
  p4 : Tlm.Payload.t;
  mutable last_tag : int;
  mutable acc_delay : Sysc.Time.t;
  (* Invoked with (addr, width) after every DMI store so the core can
     invalidate decoded basic blocks covering the written bytes. MMIO
     stores never hit cached code (blocks only exist over the DMI region),
     so the TLM path does not fire it. *)
  mutable on_code_write : int -> int -> unit;
  mutable on_merge : (int -> int -> int -> unit) option;
}

let create ~lattice ~default_tag ~tracking ~name =
  let payload len =
    Tlm.Payload.create ~len ~default_tag ()
  in
  {
    socket = Tlm.Socket.initiator ~name;
    lat = lattice;
    default_tag;
    tracking;
    dmi = None;
    p1 = payload 1;
    p2 = payload 2;
    p4 = payload 4;
    last_tag = default_tag;
    acc_delay = Sysc.Time.zero;
    on_code_write = (fun _ _ -> ());
    on_merge = None;
  }

let socket b = b.socket

let set_dmi b ~base ~ram =
  b.dmi <-
    Some
      {
        base;
        limit = base + Ram.size ram - 1;
        data = Ram.data ram;
        tags = Ram.tags ram;
      }

let clear_dmi b = b.dmi <- None

let dmi_range b =
  match b.dmi with Some d -> Some (d.base, d.limit) | None -> None
let last_tag b = b.last_tag
let set_code_write_hook b f = b.on_code_write <- f
let set_merge_hook b f = b.on_merge <- f

let take_delay b =
  let d = b.acc_delay in
  b.acc_delay <- Sysc.Time.zero;
  d

let payload_for b = function
  | 1 -> b.p1
  | 2 -> b.p2
  | 4 -> b.p4
  | w -> invalid_arg (Printf.sprintf "Bus_if: unsupported access width %d" w)

(* [tag * replicate.(w)] repeats a byte tag over [w] bytes. *)
let replicate = [| 0; 0x1; 0x101; 0; 0x1010101 |]

let join_tags b ~width tags t0 =
  let t = ref t0 in
  (* The merge hook is matched outside the byte loop so the common
     (no-tracer) configuration keeps its original inner loop. *)
  (match b.on_merge with
  | None ->
      for i = 1 to width - 1 do
        t := Dift.Lattice.lub b.lat !t ((tags lsr (8 * i)) land 0xff)
      done
  | Some f ->
      for i = 1 to width - 1 do
        let x = (tags lsr (8 * i)) land 0xff in
        let r = Dift.Lattice.lub b.lat !t x in
        f !t x r;
        t := r
      done);
  !t

(* LUB of the [width] byte tags packed in [tags] (byte [i]'s in bits
   8i..8i+7). Bytes that all carry one tag (the usual case) fold to it
   without a join or a call. *)
let[@inline] fold_tags b ~width tags =
  let t0 = tags land 0xff in
  if tags = t0 * replicate.(width) then t0 else join_tags b ~width tags t0

(* The MMIO path moves values and tags a word at a time through the
   width's preallocated payload: a routed load or store allocates
   nothing. *)
let mmio_load b ~width ~addr =
  let p = payload_for b width in
  p.Tlm.Payload.cmd <- Tlm.Payload.Read;
  p.Tlm.Payload.addr <- addr;
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  Tlm.Payload.set_all_tags p b.default_tag;
  let delay = Tlm.Socket.transport b.socket p Sysc.Time.zero in
  if not (Tlm.Payload.ok p) then raise (Bus_error { addr; write = false });
  b.acc_delay <- Sysc.Time.add b.acc_delay delay;
  b.last_tag <- fold_tags b ~width (Tlm.Payload.packed_tags p);
  Tlm.Payload.get_word p

let mmio_store b ~width ~addr ~value ~tag =
  let p = payload_for b width in
  p.Tlm.Payload.cmd <- Tlm.Payload.Write;
  p.Tlm.Payload.addr <- addr;
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  Tlm.Payload.set_word p value;
  Tlm.Payload.set_all_tags p tag;
  let delay = Tlm.Socket.transport b.socket p Sysc.Time.zero in
  if not (Tlm.Payload.ok p) then raise (Bus_error { addr; write = true });
  b.acc_delay <- Sysc.Time.add b.acc_delay delay

let load b ~width ~addr =
  match b.dmi with
  | Some d when addr >= d.base && addr + width - 1 <= d.limit ->
      let off = addr - d.base in
      (* One read packs the byte tags. *)
      if b.tracking then
        b.last_tag <- fold_tags b ~width (Ram.get d.tags ~width off);
      Ram.get d.data ~width off
  | Some _ | None ->
      b.last_tag <- b.default_tag;
      mmio_load b ~width ~addr

let store b ~width ~addr ~value ~tag =
  match b.dmi with
  | Some d when addr >= d.base && addr + width - 1 <= d.limit ->
      let off = addr - d.base in
      Ram.set d.data ~width off value;
      (* [width] is 1, 2 or 4 here: Ram.set rejected anything else. *)
      if b.tracking then Ram.set d.tags ~width off (tag * replicate.(width));
      b.on_code_write addr width
  | Some _ | None -> mmio_store b ~width ~addr ~value ~tag

let mem_tag b ~addr =
  match b.dmi with
  | Some d when addr >= d.base && addr <= d.limit ->
      Some (Ram.get d.tags ~width:1 (addr - d.base))
  | Some _ | None -> None
