type t = {
  env : Env.t;
  name : string;
  mutable pend : int;
  mutable en : int;
  mutable claimed : int;  (* in-service: claimed but not yet completed *)
  mutable level : int;  (* level-triggered sources currently asserted *)
  mutable threshold : int;
  prio : int array;  (* per-source priority, index 0 unused *)
  mutable ext_irq : bool -> unit;
  latency : Sysc.Time.t;
}

let prio_max = 7
let default_prio = 1

let create env ~name =
  {
    env;
    name;
    pend = 0;
    en = 0;
    claimed = 0;
    level = 0;
    threshold = 0;
    prio = Array.make 32 default_prio;
    ext_irq = (fun _ -> ());
    latency = Sysc.Time.ns 20;
  }

let set_ext_irq_callback p fn = p.ext_irq <- fn

(* Highest priority among pending, enabled, not-in-service sources above
   the threshold; ties broken towards the lowest source id (so the reset
   configuration — all priorities 1, threshold 0 — arbitrates exactly like
   the old lowest-id-wins controller). *)
let best p =
  let cand = p.pend land p.en land lnot p.claimed in
  let best_src = ref 0 and best_prio = ref p.threshold in
  for src = 1 to 31 do
    if cand land (1 lsl src) <> 0 && p.prio.(src) > !best_prio then begin
      best_src := src;
      best_prio := p.prio.(src)
    end
  done;
  !best_src

let update p = p.ext_irq (best p <> 0)

let check_src fn src =
  if src < 1 || src > 31 then
    invalid_arg (Printf.sprintf "Plic.%s: source %d out of range" fn src)

let trigger p src =
  check_src "trigger" src;
  p.pend <- p.pend lor (1 lsl src);
  update p

let set_level p src asserted =
  check_src "set_level" src;
  let bit = 1 lsl src in
  if asserted then begin
    p.level <- p.level lor bit;
    (* The gateway forwards a level request only while it is not already
       in service; completion re-samples the line below. *)
    if p.claimed land bit = 0 then p.pend <- p.pend lor bit
  end
  else p.level <- p.level land lnot bit;
  update p

let pending p = p.pend
let enabled p = p.en
let in_service p = p.claimed
let threshold p = p.threshold

let priority p src =
  check_src "priority" src;
  p.prio.(src)

let claim p =
  let src = best p in
  if src <> 0 then begin
    p.pend <- p.pend land lnot (1 lsl src);
    p.claimed <- p.claimed lor (1 lsl src);
    update p
  end;
  src

let complete p src =
  if src >= 1 && src <= 31 then begin
    let bit = 1 lsl src in
    p.claimed <- p.claimed land lnot bit;
    (* Level-triggered source still asserted: immediately pending again. *)
    if p.level land bit <> 0 then p.pend <- p.pend lor bit
  end;
  update p

let transport p (pay : Tlm.Payload.t) delay =
  (* Every value the controller hands out is public/trusted: interrupt
     delivery is control plane, not data plane — a tainted payload in the
     triggering peripheral must not taint the claim/dispatch path. *)
  let pub = p.env.Env.pub in
  pay.Tlm.Payload.resp <- Tlm.Payload.Ok_resp;
  (match (pay.Tlm.Payload.addr, pay.Tlm.Payload.cmd) with
  | 0x00, Tlm.Payload.Read -> Tlm.Payload.set_word_tagged pay p.pend pub
  | 0x04, Tlm.Payload.Read -> Tlm.Payload.set_word_tagged pay p.en pub
  | 0x04, Tlm.Payload.Write ->
      p.en <- Tlm.Payload.get_word pay;
      update p
  | 0x08, Tlm.Payload.Read -> Tlm.Payload.set_word_tagged pay (claim p) pub
  | 0x08, Tlm.Payload.Write -> complete p (Tlm.Payload.get_word pay)
  | 0x10, Tlm.Payload.Read -> Tlm.Payload.set_word_tagged pay p.threshold pub
  | 0x10, Tlm.Payload.Write ->
      p.threshold <- Tlm.Payload.get_word pay land prio_max;
      update p
  | addr, cmd when addr >= 0x80 && addr < 0x80 + (32 * 4) && addr land 3 = 0 ->
      let src = (addr - 0x80) / 4 in
      if src = 0 then pay.Tlm.Payload.resp <- Tlm.Payload.Address_error
      else begin
        match cmd with
        | Tlm.Payload.Read -> Tlm.Payload.set_word_tagged pay p.prio.(src) pub
        | Tlm.Payload.Write ->
            p.prio.(src) <- Tlm.Payload.get_word pay land prio_max;
            update p
      end
  | _, _ -> pay.Tlm.Payload.resp <- Tlm.Payload.Command_error);
  Sysc.Time.add delay p.latency

let socket p = Tlm.Socket.target ~name:p.name (transport p)

let save p w =
  let open Snapshot.Codec in
  put_u32 w p.pend;
  put_u32 w p.en;
  (* v2 additions. *)
  put_u32 w p.claimed;
  put_u32 w p.level;
  put_u8 w p.threshold;
  for src = 1 to 31 do
    put_u8 w p.prio.(src)
  done

let load p r =
  let open Snapshot.Codec in
  p.pend <- get_u32 r;
  p.en <- get_u32 r;
  if reader_version r >= 2 then begin
    p.claimed <- get_u32 r;
    p.level <- get_u32 r;
    p.threshold <- get_u8 r;
    for src = 1 to 31 do
      p.prio.(src) <- get_u8 r
    done
  end
  else begin
    (* v1 snapshots predate arbitration state: reset defaults. *)
    p.claimed <- 0;
    p.level <- 0;
    p.threshold <- 0;
    Array.fill p.prio 0 32 default_prio
  end
