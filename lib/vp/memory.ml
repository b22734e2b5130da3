type t = {
  name : string;
  ram : Rv32.Ram.t;
  latency : Sysc.Time.t;
  (* Fired with (offset, len) after any mutation of data or tags that does
     not go through the CPU's DMI path: TLM writes (DMA, peripherals), the
     loader, and the direct write_*/fill_tags accessors. The SoC routes it
     to the core's basic-block invalidation. *)
  mutable on_write : int -> int -> unit;
}

module Ram = Rv32.Ram

let create env ~name ~size =
  {
    name;
    ram = Ram.create ~size ~default_tag:env.Env.pub;
    latency = Sysc.Time.ns 5;
    on_write = (fun _ _ -> ());
  }

let size m = Ram.size m.ram
let ram m = m.ram
let set_write_hook m f = m.on_write <- f
let read_byte m off = Ram.get (Ram.data m.ram) ~width:1 off

let write_byte m off v =
  Ram.set (Ram.data m.ram) ~width:1 off v;
  m.on_write off 1

let read_tag m off = Ram.get (Ram.tags m.ram) ~width:1 off

let write_tag m off t =
  Ram.set (Ram.tags m.ram) ~width:1 off t;
  m.on_write off 1

let read_word m off = Ram.get (Ram.data m.ram) ~width:4 off

let write_word m off v =
  Ram.set (Ram.data m.ram) ~width:4 off v;
  m.on_write off 4

let fill_tags m ~off ~len t =
  Ram.fill (Ram.tags m.ram) ~off ~len t;
  if len > 0 then m.on_write off len

let load m ~off src =
  let len = Bytes.length src in
  Ram.blit_in src 0 (Ram.data m.ram) off len;
  if len > 0 then m.on_write off len

let tainted_regions m ~baseline =
  let out = ref [] and pos = ref 0 in
  Ram.iter_runs (Ram.tags m.ram) (fun n c ->
      let t = Char.code c in
      if t <> baseline then out := (!pos, !pos + n - 1, t) :: !out;
      pos := !pos + n);
  List.rev !out

let transport m (p : Tlm.Payload.t) delay =
  let len = Tlm.Payload.length p in
  let off = p.Tlm.Payload.addr in
  if off < 0 || off + len > size m then begin
    p.Tlm.Payload.resp <- Tlm.Payload.Address_error;
    delay
  end
  else begin
    (match p.Tlm.Payload.cmd with
    | Tlm.Payload.Read ->
        Ram.blit_out (Ram.data m.ram) off p.Tlm.Payload.data 0 len;
        Ram.blit_out (Ram.tags m.ram) off p.Tlm.Payload.tags 0 len
    | Tlm.Payload.Write ->
        Ram.blit_in p.Tlm.Payload.data 0 (Ram.data m.ram) off len;
        Ram.blit_in p.Tlm.Payload.tags 0 (Ram.tags m.ram) off len;
        if len > 0 then m.on_write off len);
    p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
    Sysc.Time.add delay m.latency
  end

let socket m = Tlm.Socket.target ~name:m.name (transport m)
let save m w = Ram.save m.ram w

(* [load] is taken by the image loader above. *)
let restore m r =
  Ram.restore m.ram r;
  (* Everything may have changed: let the write hook (basic-block cache
     invalidation) see the full range. *)
  if size m > 0 then m.on_write 0 (size m)
