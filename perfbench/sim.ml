(* Simulator legs. A leg runs one workload item (a Table II firmware or a
   generated difftest program) on a freshly created SoC, exactly as a
   user run starts: empty block caches, default superblock engine. Every
   call into the platform goes through a {!Probe.span}. *)

let span = Probe.span

(* The immobilizer's host side: answer every second CAN frame (one
   response = two frames) with the next challenge. Same protocol as the
   Table II runner's, but the counters live here so a checkpointed run
   can hand them to the SoC it restores into. *)
type host = { challenges : int; mutable sent : int; mutable frames : int }

let host_attach h (soc : Vp.Soc.t) =
  Vp.Can.set_tx_callback soc.Vp.Soc.can (fun _ ->
      h.frames <- h.frames + 1;
      if h.frames mod 2 = 0 && h.sent < h.challenges then begin
        h.sent <- h.sent + 1;
        Vp.Can.push_rx_frame soc.Vp.Soc.can (Printf.sprintf "CH%06d" h.sent)
      end)

type item = {
  name : string;
  image : Rv32_asm.Image.t;
  policy : Dift.Policy.t;
  sensor_period : Sysc.Time.t option;
  aes : (Dift.Lattice.tag * Dift.Lattice.tag) option;
  challenges : int option;  (** Immobilizer challenges the host sends. *)
  max_insns : int;
}

(* Build an item from a Table II definition, timing the image assembly. *)
let of_def ?challenges (d : Benchkit.Defs.def) =
  let image = span "rv32_asm.assemble" d.Benchkit.Defs.make_image in
  {
    name = d.Benchkit.Defs.d_name;
    image;
    policy = d.Benchkit.Defs.make_policy image;
    sensor_period = d.Benchkit.Defs.sensor_period;
    aes = d.Benchkit.Defs.aes image;
    challenges;
    max_insns = 500_000_000;
  }

(* What the simulation computed, as opposed to how fast: a simulator-only
   speed-up must leave every field identical. *)
type stats = {
  instret : int;
  sim_ns : int;
  deltas : int;
  violations : int;
  uart_bytes : int;
  exit_code : int;  (** Negative when the core stopped without exiting. *)
  out_digest : string;  (** UART + CAN output bytes, MD5 hex prefix. *)
}

type config = { tracking : bool; dmi : bool; quantum : int }

let vp = { tracking = false; dmi = true; quantum = 1000 }
let vpp = { vp with tracking = true }

type run = {
  seconds : float;  (** Host CPU time inside [Soc.run] only. *)
  stats : stats;
  checks : int;
  fast_retired : int;
  blocks : int;
  superblocks : int;
  chain_hits : int;
  ic_hits : int;
  ic_misses : int;
}

(* A booted SoC plus the host-side observers that belong to it. *)
type live = { soc : Vp.Soc.t; monitor : Dift.Monitor.t; host : host option }

let create ?tracer cfg it =
  let monitor =
    Dift.Monitor.create ~mode:Dift.Monitor.Record
      it.policy.Dift.Policy.lattice
  in
  let aes_out_tag, aes_in_clearance =
    match it.aes with Some (o, c) -> (Some o, Some c) | None -> (None, None)
  in
  let soc =
    span "vp.soc.create" (fun () ->
        Vp.Soc.create ~policy:it.policy ~monitor ~tracking:cfg.tracking
          ~dmi:cfg.dmi ~quantum:cfg.quantum ?sensor_period:it.sensor_period
          ?aes_out_tag ?aes_in_clearance ?tracer ())
  in
  (soc, monitor)

let load soc it = span "vp.soc.load_image" (fun () -> Vp.Soc.load_image soc it.image)

let start soc it =
  soc.Vp.Soc.cpu.Vp.Soc.cpu_set_max it.max_insns;
  span "vp.soc.start" (fun () -> Vp.Soc.start soc)

(* Create, load, wire the host, start: the set-up every run pays. *)
let boot ?tracer ?(before_load = fun _ -> ()) cfg it =
  let soc, monitor = create ?tracer cfg it in
  before_load soc;
  load soc it;
  let host =
    Option.map
      (fun challenges ->
        let h = { challenges; sent = 1; frames = 0 } in
        host_attach h soc;
        Vp.Can.push_rx_frame soc.Vp.Soc.can "CH000000";
        h)
      it.challenges
  in
  start soc it;
  { soc; monitor; host }

let exit_code (soc : Vp.Soc.t) =
  match soc.Vp.Soc.cpu.Vp.Soc.cpu_exit () with
  | Rv32.Core.Exited c -> c
  | Rv32.Core.Insn_limit -> -1
  | Rv32.Core.Breakpoint -> -2
  | Rv32.Core.Running -> -3

let stats ~violations (soc : Vp.Soc.t) =
  let uart = Vp.Uart.tx_string soc.Vp.Soc.uart in
  let out = String.concat "\x00" (uart :: Vp.Can.tx_frames soc.Vp.Soc.can) in
  {
    instret = soc.Vp.Soc.cpu.Vp.Soc.cpu_instret ();
    sim_ns =
      int_of_float (Float.round (Sysc.Time.to_ns (Sysc.Kernel.now soc.Vp.Soc.kernel)));
    deltas = Sysc.Kernel.delta_count soc.Vp.Soc.kernel;
    violations;
    uart_bytes = String.length uart;
    exit_code = exit_code soc;
    out_digest = String.sub (Digest.to_hex (Digest.string out)) 0 12;
  }

let result ?(violations = 0) ?(checks = 0) l seconds =
  let c = l.soc.Vp.Soc.cpu in
  {
    seconds;
    stats =
      stats ~violations:(violations + Dift.Monitor.violation_count l.monitor) l.soc;
    checks = checks + Dift.Monitor.check_count l.monitor;
    fast_retired = c.Vp.Soc.cpu_fast_retired ();
    blocks = c.Vp.Soc.cpu_blocks_built ();
    superblocks = c.Vp.Soc.cpu_superblocks_built ();
    chain_hits = c.Vp.Soc.cpu_chain_hits ();
    ic_hits = c.Vp.Soc.cpu_ic_hits ();
    ic_misses = c.Vp.Soc.cpu_ic_misses ();
  }

(* Simulation time is measured as process CPU time: the host is a shared
   virtual machine whose hypervisor steals whole scheduling slices, which
   wall time would charge to the simulator. Legs run on the main domain
   with no other domain alive, so process CPU time is the leg's own. *)
let timed_run soc =
  let t0 = Probe.cpu_ns () in
  span "vp.soc.run" (fun () -> Vp.Soc.run soc);
  let dt = float_of_int (Probe.cpu_ns () - t0) /. 1e9 in
  Probe.Gc_probe.poll ();
  dt

(* One plain leg. [txns], when given, counts routed bus transactions by
   target name through the router's observer hook. *)
let leg ?txns cfg it =
  let l = boot cfg it in
  Option.iter
    (fun tbl ->
      Tlm.Router.set_observer l.soc.Vp.Soc.router
        (Some
           (fun _ target ->
             Hashtbl.replace tbl target
               (1 + Option.value (Hashtbl.find_opt tbl target) ~default:0))))
    txns;
  let dt = timed_run l.soc in
  (result l dt, l)

let save soc = span "vp.soc.save" (fun () -> Vp.Soc.save soc)

(* VP+ with the tracing subsystem attached and a graph-store sink
   capturing the whole provenance stream. *)
type traced = {
  t_run : run;
  store : Iftgraph.Store.t;
  events : int;
  finish_ms : float;
  forensics_ms : float;
}

let traced_leg it =
  let tracer =
    span "trace.tracer.create" (fun () ->
        Trace.Tracer.create it.policy.Dift.Policy.lattice)
  in
  let sink = ref None in
  let l =
    boot ~tracer
      ~before_load:(fun _ ->
        sink :=
          Some
            (span "trace.graph.attach" (fun () ->
                 Trace.Graph.attach ~context:("perfbench " ^ it.name) tracer)))
      vpp it
  in
  let dt = timed_run l.soc in
  let sink = Option.get !sink in
  let t0 = Probe.now_ns () in
  let store = span "trace.graph.finish" (fun () -> Trace.Graph.finish sink) in
  let t1 = Probe.now_ns () in
  let violation =
    match Dift.Monitor.violations l.monitor with v :: _ -> Some v | [] -> None
  in
  ignore
    (span "trace.forensics" (fun () ->
         Trace.Forensics.to_string
           (Trace.Forensics.make ?violation ~context:it.name tracer ())));
  let t2 = Probe.now_ns () in
  Trace.Graph.detach sink;
  {
    t_run = result l dt;
    store;
    events = Trace.Tracer.events_recorded tracer;
    finish_ms = float_of_int (t1 - t0) /. 1e6;
    forensics_ms = float_of_int (t2 - t1) /. 1e6;
  }

(* VP+ paused every [stride] retired instructions: each pause saves the
   platform, restores it into a brand-new SoC and continues there. The
   final state is saved too, restored into one more fresh SoC and saved
   again, so every leg yields at least one save and one restore. *)
type checkpointed = {
  c_run : run;
  final : string;
  resaved_equal : bool;
  saves_ms : float list;
  restores_ms : float list;
  checkpoints : int;
  snap_bytes : int;
}

let checkpointed_leg ~stride it =
  let saves = ref [] and restores = ref [] and bytes = ref 0 in
  let violations = ref 0 and checks = ref 0 and elapsed = ref 0. in
  let timed f =
    let t0 = Probe.now_ns () in
    let v = f () in
    (v, float_of_int (Probe.now_ns () - t0) /. 1e6)
  in
  let restore_fresh snap =
    let soc, monitor = create vpp it in
    load soc it;
    let (), ms = timed (fun () -> span "vp.soc.restore" (fun () -> Vp.Soc.restore soc snap)) in
    restores := ms :: !restores;
    (soc, monitor)
  in
  let rec go l =
    Vp.Soc.pause_at l.soc (l.soc.Vp.Soc.cpu.Vp.Soc.cpu_instret () + stride);
    elapsed := !elapsed +. timed_run l.soc;
    if Vp.Soc.paused l.soc then begin
      let snap, ms = timed (fun () -> save l.soc) in
      saves := ms :: !saves;
      bytes := String.length snap;
      violations := !violations + Dift.Monitor.violation_count l.monitor;
      checks := !checks + Dift.Monitor.check_count l.monitor;
      let soc, monitor = restore_fresh snap in
      Option.iter (fun h -> host_attach h soc) l.host;
      start soc it;
      soc.Vp.Soc.cpu.Vp.Soc.cpu_clear_paused ();
      go { l with soc; monitor }
    end
    else l
  in
  let l = go (boot vpp it) in
  let r = result ~violations:!violations ~checks:!checks l !elapsed in
  let final, ms = timed (fun () -> save l.soc) in
  saves := ms :: !saves;
  let n = List.length !saves - 1 in
  let soc, _ = restore_fresh final in
  {
    c_run = r;
    final;
    resaved_equal = String.equal (save soc) final;
    saves_ms = !saves;
    restores_ms = !restores;
    checkpoints = n;
    snap_bytes = (if !bytes > 0 then !bytes else String.length final);
  }
