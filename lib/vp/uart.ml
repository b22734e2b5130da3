type t = {
  env : Env.t;
  name : string;
  port : string;
  rx : (int * int) Queue.t;  (* byte, tag *)
  (* Transmitted bytes and their tags, oldest first: appending to a
     buffer keeps a data-register store allocation-free. *)
  tx : Buffer.t;
  tx_tags : Buffer.t;
  mutable irq_en : bool;
  mutable irq : bool -> unit;
  latency : Sysc.Time.t;
}

let create env ~name ~port =
  {
    env;
    name;
    port;
    rx = Queue.create ();
    tx = Buffer.create 64;
    tx_tags = Buffer.create 64;
    irq_en = false;
    irq = (fun _ -> ());
    latency = Sysc.Time.ns 100;
  }

let set_irq_callback u fn = u.irq <- fn

let update_irq u = u.irq (u.irq_en && not (Queue.is_empty u.rx))

let push_rx u ?tag s =
  let tag =
    match tag with Some t -> t | None -> u.env.Env.policy.Dift.Policy.default_tag
  in
  if s <> "" then Env.taint_source u.env ~origin:(u.name ^ ".rx") tag;
  String.iter (fun c -> Queue.push (Char.code c, tag) u.rx) s;
  update_irq u

let rx_pending u = Queue.length u.rx

let tx_string u = Buffer.contents u.tx

let tx_tagged u =
  List.init (Buffer.length u.tx) (fun i ->
      (Buffer.nth u.tx i, Char.code (Buffer.nth u.tx_tags i)))

let clear_tx u =
  Buffer.clear u.tx;
  Buffer.clear u.tx_tags

let send u c tag =
  Buffer.add_char u.tx c;
  Buffer.add_char u.tx_tags (Char.chr tag)

let transport u (p : Tlm.Payload.t) delay =
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match (p.Tlm.Payload.addr, p.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Write ->
      let byte = Tlm.Payload.get_byte p 0 in
      let tag = Tlm.Payload.get_tag p 0 in
      if not (Env.output_allowed u.env ~port:u.port ~data_tag:tag) then
        Env.output_violation u.env ~port:u.port ~data_tag:tag
          (Printf.sprintf "%s tx byte 0x%02x" u.name byte);
      send u (Char.chr byte) tag
  | 0x04, Tlm.Payload.Read ->
      Tlm.Payload.set_all_tags p u.env.Env.pub;
      if Queue.is_empty u.rx then Tlm.Payload.set_word p 0
      else begin
        let byte, tag = Queue.take u.rx in
        Tlm.Payload.set_word p byte;
        Tlm.Payload.set_tag p 0 tag
      end;
      update_irq u
  | 0x08, Tlm.Payload.Read ->
      Tlm.Payload.set_word_tagged p
        ((if Queue.is_empty u.rx then 0 else 1) lor 2)
        u.env.Env.pub
  | 0x0c, Tlm.Payload.Read ->
      Tlm.Payload.set_word_tagged p (if u.irq_en then 1 else 0) u.env.Env.pub
  | 0x0c, Tlm.Payload.Write ->
      u.irq_en <- Tlm.Payload.get_byte p 0 land 1 <> 0;
      update_irq u
  | _, _ -> p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay u.latency

let socket u = Tlm.Socket.target ~name:u.name (transport u)

let save u w =
  let open Snapshot.Codec in
  put_list w
    (fun w (byte, tag) ->
      put_u8 w byte;
      put_u8 w tag)
    (List.of_seq (Queue.to_seq u.rx));
  (* The transmit log as a counted list of (byte, tag) pairs, written
     straight from the buffers. *)
  let n = Buffer.length u.tx in
  put_u32 w n;
  for i = 0 to n - 1 do
    put_u8 w (Char.code (Buffer.nth u.tx i));
    put_u8 w (Char.code (Buffer.nth u.tx_tags i))
  done;
  put_bool w u.irq_en

let load u r =
  let open Snapshot.Codec in
  Queue.clear u.rx;
  List.iter
    (fun bt -> Queue.push bt u.rx)
    (get_list r (fun r ->
         let byte = get_u8 r in
         let tag = get_u8 r in
         (byte, tag)));
  clear_tx u;
  for _ = 1 to get_u32 r do
    let c = Char.chr (get_u8 r) in
    send u c (get_u8 r)
  done;
  u.irq_en <- get_bool r
