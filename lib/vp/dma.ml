type t = {
  env : Env.t;
  name : string;
  init : Tlm.Socket.initiator;
  mutable src : int;
  mutable dst : int;
  mutable len : int;
  mutable busy : bool;
  (* A transfer's data movement happens at start time; [in_flight] is true
     while the modelled transfer latency runs down (completion, IRQ and
     [busy] clearing happen when [done_ev] fires). Both the flag and the
     pending [done_ev] notification survive a snapshot. *)
  mutable in_flight : bool;
  mutable done_count : int;
  mutable irq : unit -> unit;
  start_ev : Sysc.Kernel.event;
  done_ev : Sysc.Kernel.event;
  shuttle : Tlm.Payload.t;  (* one-byte payload reused for the copy loop *)
  latency : Sysc.Time.t;
  byte_time : Sysc.Time.t;
}

let create env ~name =
  {
    env;
    name;
    init = Tlm.Socket.initiator ~name:(name ^ ".init");
    src = 0;
    dst = 0;
    len = 0;
    busy = false;
    in_flight = false;
    done_count = 0;
    irq = (fun () -> ());
    start_ev = Sysc.Kernel.create_event env.Env.kernel (name ^ ".start");
    done_ev = Sysc.Kernel.create_event env.Env.kernel (name ^ ".done");
    shuttle = Tlm.Payload.create ~len:1 ~default_tag:env.Env.pub ();
    latency = Sysc.Time.ns 20;
    byte_time = Sysc.Time.ns 10;
  }

let initiator d = d.init
let set_irq_callback d fn = d.irq <- fn
let busy d = d.busy
let transfers_completed d = d.done_count

let copy_byte d ~from ~into =
  let p = d.shuttle in
  p.Tlm.Payload.cmd <- Tlm.Payload.Read;
  p.Tlm.Payload.addr <- from;
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  ignore (Tlm.Socket.transport d.init p Sysc.Time.zero);
  if Tlm.Payload.ok p then begin
    Env.taint_via d.env ~channel:d.name (Tlm.Payload.get_tag p 0);
    Env.check_store d.env ~addr:into
      ~data_tag:(Tlm.Payload.get_tag p 0)
      ~who:d.name;
    p.Tlm.Payload.cmd <- Tlm.Payload.Write;
    p.Tlm.Payload.addr <- into;
    ignore (Tlm.Socket.transport d.init p Sysc.Time.zero)
  end

(* memmove semantics: when the destination window starts inside the source
   window, a low-to-high byte copy would re-read bytes it has already
   overwritten; copy high-to-low instead. Tags ride with their bytes in
   both directions ([copy_byte] shuttles data byte and tag together). *)
let copy_all d =
  if d.dst > d.src && d.dst < d.src + d.len then
    for i = d.len - 1 downto 0 do
      copy_byte d ~from:(d.src + i) ~into:(d.dst + i)
    done
  else
    for i = 0 to d.len - 1 do
      copy_byte d ~from:(d.src + i) ~into:(d.dst + i)
    done

let start d =
  Sysc.Kernel.spawn d.env.Env.kernel ~name:(d.name ^ ".engine") (fun () ->
      while not (Sysc.Kernel.stopped d.env.Env.kernel) do
        if d.in_flight then begin
          Sysc.Kernel.wait_event d.done_ev;
          d.busy <- false;
          d.in_flight <- false;
          d.done_count <- d.done_count + 1;
          d.irq ()
        end
        else begin
          Sysc.Kernel.wait_event d.start_ev;
          if d.busy then begin
            copy_all d;
            d.in_flight <- true;
            Sysc.Kernel.notify_after d.done_ev (d.len * d.byte_time)
          end
        end
      done)

let transport d (p : Tlm.Payload.t) delay =
  let pub = d.env.Env.pub in
  p.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match (p.Tlm.Payload.addr, p.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Read -> Tlm.Payload.set_word_tagged p d.src pub
  | 0x00, Tlm.Payload.Write -> d.src <- Tlm.Payload.get_word p
  | 0x04, Tlm.Payload.Read -> Tlm.Payload.set_word_tagged p d.dst pub
  | 0x04, Tlm.Payload.Write -> d.dst <- Tlm.Payload.get_word p
  | 0x08, Tlm.Payload.Read -> Tlm.Payload.set_word_tagged p d.len pub
  | 0x08, Tlm.Payload.Write -> d.len <- Tlm.Payload.get_word p
  | 0x0c, Tlm.Payload.Read ->
      Tlm.Payload.set_word_tagged p (if d.busy then 1 else 0) pub
  | 0x0c, Tlm.Payload.Write ->
      if Tlm.Payload.get_word p land 1 <> 0 && not d.busy then begin
        d.busy <- true;
        Sysc.Kernel.notify d.start_ev
      end
  | _, _ -> p.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay d.latency

let socket d = Tlm.Socket.target ~name:d.name (transport d)

let save d w =
  let open Snapshot.Codec in
  put_u32 w d.src;
  put_u32 w d.dst;
  put_u32 w d.len;
  put_bool w d.busy;
  put_bool w d.in_flight;
  put_i64 w d.done_count

let load d r =
  let open Snapshot.Codec in
  d.src <- get_u32 r;
  d.dst <- get_u32 r;
  d.len <- get_u32 r;
  d.busy <- get_bool r;
  d.in_flight <- get_bool r;
  d.done_count <- get_i64 r
