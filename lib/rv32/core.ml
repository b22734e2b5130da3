exception Fatal_trap of { cause : int; pc : int; tval : int }

type exit_reason = Running | Exited of int | Breakpoint | Insn_limit

(* Architectural trap traffic, observable through {!set_trap_hook} (the SoC
   wires it into the tracer): one event per trap entry (synchronous
   exception or interrupt) and one per mret. *)
type trap_event =
  | Trap_enter of { cause : int; epc : int; tval : int; handler : int }
  | Trap_return of { target : int; to_priv : int }

(* Pluggable execution engines over the same decoded-block cache:
   [Interp] dispatches blocks through the per-instruction execute loop;
   [Threaded] compiles each block into a closure chain (threaded code)
   with pre-resolved operands and an untainted specialization;
   [Threaded_superblock] additionally chains hot block pairs across
   their terminating branch into superblocks and inline-caches jalr
   targets, so hot edges skip the dispatcher entirely. All engines
   retire identical architectural state, tags, counters and hook streams
   — pinned by test_threaded / test_superblock and the difftest
   engine-diff legs. *)
type engine = Interp | Threaded | Threaded_superblock

let engine_name = function
  | Interp -> "interp"
  | Threaded -> "threaded"
  | Threaded_superblock -> "superblock"

let engine_of_string = function
  | "interp" | "interpreter" -> Some Interp
  | "threaded" -> Some Threaded
  | "superblock" | "threaded-superblock" | "threaded_superblock" ->
      Some Threaded_superblock
  | _ -> None

module type MODE = sig
  val tracking : bool
end


module type S = sig
  type t

  val create :
    kernel:Sysc.Kernel.t ->
    bus:Bus_if.t ->
    policy:Dift.Policy.t ->
    monitor:Dift.Monitor.t ->
    ?cycle_time:Sysc.Time.t ->
    ?quantum:int ->
    ?block_cache:bool ->
    ?fast_path:bool ->
    ?engine:engine ->
    ?strict_align:bool ->
    pc:int ->
    unit ->
    t

  val pc : t -> int
  val set_pc : t -> int -> unit
  val get_reg : t -> Reg.t -> int
  val get_reg_tag : t -> Reg.t -> Dift.Lattice.tag
  val reg_tags : t -> Dift.Lattice.tag array
  val set_reg : t -> Reg.t -> int -> unit
  val set_reg_tagged : t -> Reg.t -> int -> Dift.Lattice.tag -> unit
  val csr : t -> Csr.t
  val instret : t -> int
  val priv : t -> int
  val set_irq : t -> bit:int -> bool -> unit
  val step : t -> unit
  val spawn_thread : ?stop_kernel_on_halt:bool -> t -> unit
  val set_max_instructions : t -> int -> unit
  val exit_reason : t -> exit_reason
  val halted : t -> bool
  val halt : t -> exit_reason -> unit
  val unhalt : t -> unit
  val set_trace : t -> (int -> Insn.t -> unit) option -> unit
  val set_trap_hook : t -> (trap_event -> unit) option -> unit
  val set_merge_hook : t -> (int -> int -> int -> unit) option -> unit
  val flush_code : t -> addr:int -> len:int -> unit
  val blocks_built : t -> int
  val superblocks_built : t -> int
  val chain_hits : t -> int
  val ic_hits : t -> int
  val ic_misses : t -> int
  val fast_retired : t -> int
  val set_pause_at : t -> int -> unit
  val paused : t -> bool
  val clear_paused : t -> unit
  val save : t -> Snapshot.Codec.writer -> unit
  val load : t -> Snapshot.Codec.reader -> unit
end

let mask32 v = v land 0xffffffff
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* --- Decoded basic blocks -------------------------------------------- *)

(* A run of instructions starting at [b_pc], fetched and decoded once.
   Control transfers (branches, jal, jalr) terminate a block and are its
   last instruction; system instructions (ecall, csr*, wfi, ...) are never
   cached — a block whose first instruction is one of those is stored as an
   empty marker so the dispatcher falls back to {!step} without re-probing.
   [b_tags] caches the fetch tag of each instruction word (tracking mode);
   [b_fast] is true when every cached word carries the lattice-bottom tag,
   a precondition of the untainted fast path. *)
type block = {
  b_pc : int;
  b_insns : Insn.t array;
  b_words : int array;
  b_tags : int array;
  b_fast : bool;
}

let max_block_insns = 32

(* --- Sparse per-word tables ------------------------------------------- *)

(* The pc-indexed caches hold one entry per instruction word of the DMI
   (RAM) region. Each is a directory of fixed-size pages, a page being
   allocated on its first insert: a core costs what its code touches,
   not its RAM, and clearing or range-flushing visits allocated pages
   only. Callers keep indices within [0, length). *)
module Table = struct
  let page_bits = 10
  let page_size = 1 lsl page_bits
  let page_mask = page_size - 1

  type 'a t = { n : int; empty : 'a; dir : 'a array array }

  let create n empty =
    { n; empty; dir = Array.make ((n + page_mask) lsr page_bits) [||] }

  let length t = t.n

  let[@inline] get t i =
    let pg = Array.unsafe_get t.dir (i lsr page_bits) in
    if Array.length pg = 0 then t.empty else Array.unsafe_get pg (i land page_mask)

  let set t i v =
    let d = i lsr page_bits in
    let pg = Array.unsafe_get t.dir d in
    let pg =
      if Array.length pg > 0 then pg
      else begin
        let pg = Array.make page_size t.empty in
        Array.unsafe_set t.dir d pg;
        pg
      end
    in
    Array.unsafe_set pg (i land page_mask) v

  let clear t = Array.fill t.dir 0 (Array.length t.dir) [||]

  (* Reset to [empty] each entry of [i0 .. i1] that [drop] selects. *)
  let drop_range t i0 i1 drop =
    for d = i0 lsr page_bits to i1 lsr page_bits do
      let pg = Array.unsafe_get t.dir d in
      if Array.length pg > 0 then
        for i = max i0 (d lsl page_bits) to min i1 ((d lsl page_bits) lor page_mask) do
          let o = i land page_mask in
          if drop (Array.unsafe_get pg o) then Array.unsafe_set pg o t.empty
        done
    done
end

(* Block membership is classified next to the decoder so both engines
   build identical blocks. *)
let block_breaker insn = Decode.block_class insn = Decode.Breaker
let block_ender insn = Decode.block_class insn = Decode.Ender

module Make (M : MODE) = struct
  (* A basic block compiled to threaded code (see [compile_block]): one
     closure per instruction with operands pre-resolved, chained
     tail-first so executing the block is a single indirect call.
     [cb_full] is the full-semantics variant (tag plumbing per the
     flavour); [cb_fast] is the untainted specialization with all tag
     code compiled out, present only for blocks whose every word carries
     the bottom tag on cores where the fast path is enabled. A breaker-led
     block is stored with [cb_n = 0] so the dispatcher falls back to
     {!step} without re-probing.

     The superblock engine additionally keeps the decoded source
     ([cb_blk], for recompiling the block chained into a hot successor),
     an exit-edge profile ([cb_edge_pc]/[cb_edge_n]: the last observed
     dispatcher-entry pc after this chain ran, and how many consecutive
     times it repeated), and the byte span the compiled code depends on
     ([cb_lo..cb_hi] — the block itself, widened to the convex hull of
     predecessor and successor once chained, so invalidation stays a
     range compare). *)
  type cblock = {
    cb_pc : int;
    cb_n : int;
    cb_full : unit -> unit;
    cb_fast : (unit -> unit) option;
    cb_blk : block;
    cb_lo : int;
    cb_hi : int;
    mutable cb_edge_pc : int;
    mutable cb_edge_n : int;
    mutable cb_linked : bool;
  }

  (* Inline cache for a compiled jalr site: predicted target pc plus the
     direct chain entry for it. [ic_pc] is -1 while empty and -2 once
     demoted (two distinct targets were observed — the site is
     polymorphic and keeps paying the dispatcher). A cached entry is
     trusted only while no flush epoch has passed since it was installed;
     epoch bumps (SMC/DMA writes, set_trace, privilege changes, snapshot
     restore) invalidate every cache at once. *)
  type ic = {
    mutable ic_pc : int;
    mutable ic_epoch : int;
    mutable ic_entry : unit -> unit;
  }

  type t = {
    kernel : Sysc.Kernel.t;
    bus : Bus_if.t;
    policy : Dift.Policy.t;
    monitor : Dift.Monitor.t;
    lat : Dift.Lattice.t;
    regs : int array;
    rtags : int array;
    mutable pc : int;
    mutable cur_pc : int;  (* pc of the instruction in flight *)
    mutable insn_word : int;
    mutable insn_tag : int;
    csrf : Csr.t;
    mutable priv : int;  (* current privilege: Csr.priv_m or Csr.priv_u *)
    pub : int;  (* lattice bottom: tag of constants / x0 *)
    fetch_req : int option;
    branch_req : int option;
    mem_addr_req : int option;
    has_store_clearance : bool;
    strict_align : bool;  (* misaligned data accesses fault (cause 4 / 6) *)
    decode_cache : (int, Insn.t) Hashtbl.t;
    (* pc-indexed direct cache over the DMI (RAM) region: validated by
       comparing the cached word, so self-modifying code re-decodes. Used
       by the single-step path and during block building. *)
    pc_cache_base : int;
    pc_cache_words : int Table.t;  (* empty if no DMI region *)
    pc_cache_insns : Insn.t Table.t;
    (* Decoded basic-block cache over the same region, keyed by start pc.
       Unlike the per-word cache it is NOT self-validating: stores into
       cached code must call {!flush_code} (wired from Bus_if and the
       SoC memory model). *)
    use_blocks : bool;
    engine : engine;
    blocks : block option Table.t;  (* Interp engine; empty when disabled *)
    cblocks : cblock option Table.t;  (* Threaded engine; empty when disabled *)
    blk_base : int;
    blk_limit : int;
    mutable code_lo : int;  (* byte range ever covered by built blocks *)
    mutable code_hi : int;
    mutable flush_epoch : int;
    (* [flush_epoch] at entry of the currently running compiled chain;
       compiled instructions stop the chain when the two diverge (the
       threaded engine's equivalent of exec_block's epoch0). *)
    mutable chain_epoch : int;
    (* Untainted fast path (tracking mode): when enabled and the current
       block is b_fast with all register tags at bottom, tag propagation
       and clearance checks are skipped — they can only produce bottom tags
       and passing checks. [fast] is true only while such a block runs. *)
    fast_enabled : bool;
    (* Whether the threaded compiler may emit the value-only specialized
       variant. Tracked cores inherit [fast_enabled]; untracked cores get
       it whenever the fast path is configured on — with no tags anywhere
       the specialization is exact semantics, not an optimistic gamble,
       so it needs no per-entry tag precondition and never falls back. *)
    fast_spec : bool;
    mutable fast : bool;
    (* Superblock chaining (Threaded_superblock engine): [prev_cb] is the
       chain that ran in the previous scheduling round (exit-edge
       profiling; [no_cb] when none did), [sblocks] the registry of slots
       currently holding a recompiled superblock — their spans cover two
       blocks, so invalidation scans the registry in addition to the
       positional window. *)
    superblocks : bool;
    mutable prev_cb : cblock;
    mutable sblocks : (int * cblock) list;
    mutable n_blocks : int;
    mutable n_superblocks : int;
    mutable n_chain : int;
    mutable n_ic_hits : int;
    mutable n_ic_miss : int;
    mutable n_fast : int;
    irq_event : Sysc.Kernel.event;
    (* Time sync goes through a named event (not [wait_for]) so that a
       paused core's pending wakeup is serialisable: at a sync boundary the
       kernel's only CPU-related state is one pending notification on
       [sync_event]. [syncing] is true while the thread is parked on it. *)
    sync_event : Sysc.Kernel.event;
    mutable syncing : bool;
    mutable pause_at : int;  (* pause at the first sync with instret >= this *)
    mutable paused : bool;
    cycle_time : Sysc.Time.t;
    quantum : int;
    mutable local_cycles : int;
    mutable instret : int;
    mutable max_insns : int;
    mutable in_wfi : bool;
    mutable exit_reason : exit_reason;
    mutable trace : (int -> Insn.t -> unit) option;
    mutable on_merge : (int -> int -> int -> unit) option;
    (* Read dynamically by enter_trap / mret (never from compiled chains:
       trap instructions are breakers), so installing it needs no flush. *)
    mutable on_trap : (trap_event -> unit) option;
  }

  (* [prev_cb] when no chain ran in the previous round: storing it
     instead of an option keeps the dispatcher allocation-free. It is
     marked linked, so exit-edge profiling never updates it. *)
  let no_cb =
    {
      cb_pc = -1;
      cb_n = 0;
      cb_full = (fun () -> ());
      cb_fast = None;
      cb_blk =
        {
          b_pc = -1;
          b_insns = [||];
          b_words = [||];
          b_tags = [||];
          b_fast = false;
        };
      cb_lo = 0;
      cb_hi = -1;
      cb_edge_pc = -1;
      cb_edge_n = 0;
      cb_linked = true;
    }

  (* Invalidate every cached block overlapping [addr .. addr+len-1] (the
     caller already wrote the bytes). Cheap when the write is outside any
     code executed so far: one range compare. *)
  let flush_code t ~addr ~len =
    if
      len > 0 && t.use_blocks
      && addr <= t.code_hi
      && addr + len - 1 >= t.code_lo
    then begin
      t.flush_epoch <- t.flush_epoch + 1;
      let last = addr + len - 1 in
      (* A block starting up to max_block_insns-1 words earlier can still
         cover [addr]. *)
      let lo = max t.blk_base (addr - ((max_block_insns - 1) * 4)) in
      let hi = min last t.blk_limit in
      if lo <= hi then begin
        let i0 = (lo - t.blk_base) lsr 2 and i1 = (hi - t.blk_base) lsr 2 in
        if Table.length t.blocks > 0 then
          Table.drop_range t.blocks i0 i1 (function
            | Some b ->
                let words = max 1 (Array.length b.b_insns) in
                b.b_pc + (4 * words) - 1 >= addr
            | None -> false);
        if Table.length t.cblocks > 0 then
          Table.drop_range t.cblocks i0 i1 (function
            | Some cb -> cb.cb_hi >= addr
            | None -> false)
      end;
      (* Superblocks span two blocks, so the slot may sit outside the
         positional window above; their registry is scanned by span.
         Entries whose slot no longer holds them (already flushed, or
         replaced) are dropped along the way. *)
      if t.sblocks <> [] then
        t.sblocks <-
          List.filter
            (fun (i, cb) ->
              match Table.get t.cblocks i with
              | Some cur when cur == cb ->
                  if cb.cb_hi >= addr && cb.cb_lo <= last then begin
                    Table.set t.cblocks i None;
                    false
                  end
                  else true
              | _ -> false)
            t.sblocks
    end

  let create ~kernel ~bus ~policy ~monitor ?(cycle_time = Sysc.Time.ns 10)
      ?(quantum = 1000) ?(block_cache = true) ?(fast_path = true)
      ?(engine = Threaded_superblock) ?(strict_align = false) ~pc () =
    let pc_cache_base, pc_cache_words, pc_cache_insns =
      match Bus_if.dmi_range bus with
      | Some (base, limit) ->
          let entries = ((limit - base) / 4) + 1 in
          (base, Table.create entries (-1), Table.create entries (Insn.ILLEGAL 0))
      | None -> (0, Table.create 0 (-1), Table.create 0 (Insn.ILLEGAL 0))
    in
    let lat = policy.Dift.Policy.lattice in
    let pub =
      match Dift.Lattice.bottom lat with
      | Some b -> b
      | None -> policy.Dift.Policy.default_tag
    in
    let cache_entries, blk_base, blk_limit =
      match Bus_if.dmi_range bus with
      | Some (base, limit) when block_cache ->
          (((limit - base) / 4) + 1, base, limit)
      | Some _ | None -> (0, 0, -1)
    in
    (* Each engine keeps its own cache of derived block state: decoded
       blocks for the interpreter, compiled closure chains for the
       threaded engine. Only the selected engine's table has entries. *)
    let blocks =
      Table.create (if engine = Interp then cache_entries else 0) None
    in
    let cblocks : cblock option Table.t =
      Table.create (if engine <> Interp then cache_entries else 0) None
    in
    (* The fast path is sound only if the bottom tag passes every check the
       engine could skip: the execution clearances and all store-integrity
       regions. Policies where bottom itself is not cleared (so every
       instruction would violate) simply never take it. *)
    let pub_flows_to = function
      | Some req -> Dift.Lattice.allowed_flow lat pub req
      | None -> true
    in
    let fast_enabled =
      M.tracking && fast_path && cache_entries > 0
      && pub_flows_to policy.Dift.Policy.exec_fetch
      && pub_flows_to policy.Dift.Policy.exec_branch
      && pub_flows_to policy.Dift.Policy.exec_mem_addr
      && List.for_all
           (fun r -> Dift.Lattice.allowed_flow lat pub r.Dift.Policy.r_tag)
           policy.Dift.Policy.store_clearance
    in
    let fast_spec =
      if M.tracking then fast_enabled else fast_path && cache_entries > 0
    in
    let t =
      {
        kernel;
        bus;
        policy;
        monitor;
        lat;
        regs = Array.make 32 0;
        rtags = Array.make 32 pub;
        pc;
        cur_pc = pc;
        insn_word = 0;
        insn_tag = pub;
        csrf = Csr.create ~default_tag:pub;
        priv = Csr.priv_m;
        pub;
        fetch_req = policy.Dift.Policy.exec_fetch;
        branch_req = policy.Dift.Policy.exec_branch;
        mem_addr_req = policy.Dift.Policy.exec_mem_addr;
        has_store_clearance = policy.Dift.Policy.store_clearance <> [];
        strict_align;
        decode_cache = Hashtbl.create 1024;
        pc_cache_base;
        pc_cache_words;
        pc_cache_insns;
        use_blocks = cache_entries > 0;
        engine;
        blocks;
        cblocks;
        blk_base;
        blk_limit;
        code_lo = max_int;
        code_hi = min_int;
        flush_epoch = 0;
        chain_epoch = 0;
        fast_enabled;
        fast_spec;
        fast = false;
        superblocks = (engine = Threaded_superblock && cache_entries > 0);
        prev_cb = no_cb;
        sblocks = [];
        n_blocks = 0;
        n_superblocks = 0;
        n_chain = 0;
        n_ic_hits = 0;
        n_ic_miss = 0;
        n_fast = 0;
        irq_event = Sysc.Kernel.create_event kernel "cpu.irq";
        sync_event = Sysc.Kernel.create_event kernel "cpu.sync";
        syncing = false;
        pause_at = max_int;
        paused = false;
        cycle_time;
        quantum;
        local_cycles = 0;
        instret = 0;
        max_insns = max_int;
        in_wfi = false;
        exit_reason = Running;
        trace = None;
        on_merge = None;
        on_trap = None;
      }
    in
    if t.use_blocks then
      Bus_if.set_code_write_hook bus (fun addr len -> flush_code t ~addr ~len);
    t

  let pc t = t.pc
  let set_pc t v = t.pc <- mask32 v
  let get_reg t r = t.regs.(r)
  let get_reg_tag t r = t.rtags.(r)
  let reg_tags t = t.rtags

  let set_reg_tagged t r v tag =
    if r <> 0 then begin
      t.regs.(r) <- mask32 v;
      if M.tracking then begin
        t.rtags.(r) <- tag;
        (* First non-bottom tag (a tainted load) ends the fast path; the
           remainder of the block runs with full propagation. *)
        if t.fast && tag <> t.pub then t.fast <- false
      end
    end

  let set_reg t r v = set_reg_tagged t r v t.pub
  let csr t = t.csrf
  let priv t = t.priv
  let set_trap_hook t fn = t.on_trap <- fn
  let instret t = t.instret
  let set_max_instructions t n = t.max_insns <- n
  let exit_reason t = t.exit_reason
  let halted t = t.exit_reason <> Running

  let halt t reason =
    if t.exit_reason = Running then t.exit_reason <- reason

  (* Compiled chains capture the hook value at compile time (the common
     no-hook case pays nothing per instruction), so changing it must drop
     every compiled block and stop any running chain; the interpreter
     reads [t.trace] dynamically and needs neither. *)
  let set_trace t fn =
    t.trace <- fn;
    if Table.length t.cblocks > 0 then begin
      t.flush_epoch <- t.flush_epoch + 1;
      Table.clear t.cblocks;
      t.sblocks <- [];
      t.prev_cb <- no_cb
    end
  let set_merge_hook t fn = t.on_merge <- fn
  let blocks_built t = t.n_blocks
  let superblocks_built t = t.n_superblocks
  let chain_hits t = t.n_chain
  let ic_hits t = t.n_ic_hits
  let ic_misses t = t.n_ic_miss
  let fast_retired t = t.n_fast

  let set_irq t ~bit on =
    let c = t.csrf in
    if on then begin
      c.Csr.v_mip <- c.Csr.v_mip lor bit;
      Sysc.Kernel.notify_immediate t.irq_event
    end
    else c.Csr.v_mip <- c.Csr.v_mip land lnot bit land 0xffffffff

  (* --- DIFT checks ------------------------------------------------- *)

  (* Joining a tag with itself yields it: the common case (both operands
     bottom, or both carrying one class) costs a compare, not a lattice
     lookup, and reports nothing to the merge hook. *)
  let lub t a b =
    if a = b then a
    else begin
      let r = Dift.Lattice.lub t.lat a b in
      (match t.on_merge with Some f -> f a b r | None -> ());
      r
    end

  (* Each check counts itself and allocates nothing when it passes: these
     run on every instruction, so the violation record and its formatted
     detail string are built only once the flow has been refused. *)
  let violation t ~kind ~data_tag ~required detail =
    Dift.Monitor.violation t.monitor
      {
        Dift.Violation.kind;
        data_tag;
        required_tag = required;
        pc = Some t.cur_pc;
        detail;
      }

  let[@inline] allowed t tag required =
    Dift.Monitor.count_check t.monitor;
    Dift.Lattice.allowed_flow t.lat tag required

  let check_fetch t tag =
    match t.fetch_req with
    | Some required ->
        if not (allowed t tag required) then
          violation t ~kind:Dift.Violation.Exec_fetch ~data_tag:tag ~required
            (Printf.sprintf "fetch of 0x%08x" t.insn_word)
    | None -> ()

  let check_branch t tag detail =
    match t.branch_req with
    | Some required ->
        if not (allowed t tag required) then
          violation t ~kind:Dift.Violation.Exec_branch ~data_tag:tag ~required
            detail
    | None -> ()

  let check_mem_addr t tag addr =
    match t.mem_addr_req with
    | Some required ->
        if not (allowed t tag required) then
          violation t ~kind:Dift.Violation.Exec_mem_addr ~data_tag:tag
            ~required
            (Printf.sprintf "effective address 0x%08x" addr)
    | None -> ()

  let check_store_region t ~addr ~width ~tag =
    if t.has_store_clearance then
      for i = 0 to width - 1 do
        let a = addr + i in
        let required = Dift.Policy.store_clearance_at t.policy a in
        if required >= 0 && not (allowed t tag required) then
          let region, _ =
            Option.get (Dift.Policy.store_required_at t.policy a)
          in
          violation t ~kind:(Dift.Violation.Store_integrity region)
            ~data_tag:tag ~required
            (Printf.sprintf "store to 0x%08x" a)
      done

  (* --- Traps and interrupts ----------------------------------------- *)

  (* A privilege change invalidates any in-flight compiled chain (no chain
     may span a privilege boundary); the cached blocks themselves are
     privilege-agnostic — CSR access checks run on the breaker slow path —
     so only the epoch moves. *)
  let set_priv t p =
    if p <> t.priv then begin
      t.priv <- p;
      t.flush_epoch <- t.flush_epoch + 1
    end

  let enter_trap t ~cause ~tval ~epc =
    let c = t.csrf in
    if Csr.mtvec_base c.Csr.v_mtvec = 0 then
      raise (Fatal_trap { cause; pc = epc; tval });
    c.Csr.v_mepc <- epc;
    c.Csr.t_mepc <- t.pub;
    c.Csr.v_mcause <- cause;
    c.Csr.t_mcause <- t.pub;
    c.Csr.v_mtval <- mask32 tval;
    c.Csr.t_mtval <- t.pub;
    (* Stack: MPIE <- MIE, MIE <- 0, MPP <- current privilege. *)
    let s = c.Csr.v_mstatus in
    let mie = (s lsr 3) land 1 in
    c.Csr.v_mstatus <-
      s
      land lnot (Csr.mstatus_mie lor Csr.mstatus_mpie lor Csr.mstatus_mpp_mask)
      lor (mie lsl 7)
      lor (t.priv lsl Csr.mstatus_mpp_shift);
    set_priv t Csr.priv_m;
    (* Tags stay exact on the fast path, so this check runs even there. *)
    if M.tracking then check_branch t c.Csr.t_mtvec "trap vector (mtvec)";
    let base = Csr.mtvec_base c.Csr.v_mtvec in
    t.pc <-
      (if Csr.mtvec_mode c.Csr.v_mtvec = 1 && cause land 0x80000000 <> 0 then
         mask32 (base + (4 * (cause land 0x7fffffff)))
       else base);
    match t.on_trap with
    | Some f -> f (Trap_enter { cause; epc; tval = mask32 tval; handler = t.pc })
    | None -> ()

  let trap t ~cause ~tval = enter_trap t ~cause ~tval ~epc:t.cur_pc

  let take_interrupt t =
    let c = t.csrf in
    let pending = c.Csr.v_mip land c.Csr.v_mie in
    let bit =
      if pending land Csr.bit_mei <> 0 then Csr.bit_mei
      else if pending land Csr.bit_msi <> 0 then Csr.bit_msi
      else Csr.bit_mti
    in
    let idx =
      if bit = Csr.bit_mei then 11 else if bit = Csr.bit_msi then 3 else 7
    in
    enter_trap t ~cause:(Csr.cause_interrupt idx) ~tval:0 ~epc:t.pc

  (* --- Memory helpers ------------------------------------------------ *)

  let do_load t ~width ~addr =
    if t.strict_align && addr land (width - 1) <> 0 then begin
      trap t ~cause:Csr.cause_load_misaligned ~tval:addr;
      t.insn_tag <- t.pub;
      raise_notrace Exit
    end;
    try Bus_if.load t.bus ~width ~addr
    with Bus_if.Bus_error _ ->
      trap t ~cause:Csr.cause_load_fault ~tval:addr;
      (* Trap redirected control flow; the load value is irrelevant. *)
      t.insn_tag <- t.pub;
      raise_notrace Exit

  let do_store t ~width ~addr ~value ~tag =
    if t.strict_align && addr land (width - 1) <> 0 then begin
      trap t ~cause:Csr.cause_store_misaligned ~tval:addr;
      raise_notrace Exit
    end;
    try Bus_if.store t.bus ~width ~addr ~value ~tag
    with Bus_if.Bus_error _ ->
      trap t ~cause:Csr.cause_store_fault ~tval:addr;
      raise_notrace Exit

  (* --- CSR instructions ---------------------------------------------- *)

  type csr_op = Op_w | Op_s | Op_c

  let do_csr t rd n ~src_v ~src_t ~op ~do_write =
    if t.priv < Csr.required_priv n then
      trap t ~cause:Csr.cause_illegal ~tval:t.insn_word
    else
      match Csr.read t.csrf ~cycles:t.instret ~instret:t.instret n with
      | None -> trap t ~cause:Csr.cause_illegal ~tval:t.insn_word
      | Some (old_v, old_t) ->
          let write_ok =
            if do_write then begin
              let new_v, new_t =
                match op with
                | Op_w -> (src_v, src_t)
                | Op_s ->
                    ( old_v lor src_v,
                      if M.tracking then lub t old_t src_t else t.pub )
                | Op_c ->
                    ( old_v land lnot src_v land 0xffffffff,
                      if M.tracking then lub t old_t src_t else t.pub )
              in
              (* Trap-steering clearance: the trap vector and return
                 address decide where machine-mode execution resumes, so a
                 policy may require their writes to be untainted. Checked
                 before the write lands (in Halt mode the violation raise
                 leaves the CSR unchanged). *)
              (if M.tracking && (n = Csr.mtvec || n = Csr.mepc) then
                 match t.policy.Dift.Policy.trap_csr with
                 | Some required ->
                     if not (allowed t new_t required) then
                       violation t
                         ~kind:
                           (Dift.Violation.Trap_steering
                              (if n = Csr.mtvec then "mtvec" else "mepc"))
                         ~data_tag:new_t ~required
                         (Printf.sprintf "csr write of 0x%08x" (mask32 new_v))
                 | None -> ());
              Csr.write t.csrf n ~value:new_v ~tag:new_t
            end
            else true
          in
          if write_ok then set_reg_tagged t rd old_v old_t
          else trap t ~cause:Csr.cause_illegal ~tval:t.insn_word

  (* --- Execute -------------------------------------------------------- *)

  (* Operand helpers of {!execute}. They live at functor level, taking
     what they need as arguments, so that executing an instruction builds
     no closure. [fast] is the fast-path flag at instruction entry and
     [itag] the instruction's fetch tag (see [execute]). *)
  let rt t r = if M.tracking then t.rtags.(r) else t.pub

  (* Tag of an ALU result from one / two register sources: immediates and
     the operation itself inherit the instruction's classification. *)
  let tag1 t fast itag r =
    if M.tracking && not fast then lub t t.rtags.(r) itag else t.pub

  let tag2 t fast itag a b =
    if M.tracking && not fast then lub t (lub t t.rtags.(a) t.rtags.(b)) itag
    else t.pub

  let branch_to t target = t.pc <- mask32 target

  let cond_branch t fast pc0 a b off taken =
    if M.tracking && not fast then
      check_branch t (lub t (rt t a) (rt t b)) "branch condition";
    if taken then branch_to t (pc0 + off)

  let execute t insn =
    let open Insn in
    let pc0 = t.cur_pc in
    let regs = t.regs and rtags = t.rtags in
    let itag = t.insn_tag in
    (* On the fast path every live tag is the bottom tag, so propagation is
       the identity and every clearance check passes by construction (see
       [fast_enabled]); both are skipped. A tainted load drops [t.fast]
       inside set_reg_tagged, but [fast] here is deliberately the value at
       instruction entry: nothing after the load reads tags. *)
    let fast = M.tracking && t.fast in
    match insn with
    | LUI (rd, imm) -> set_reg_tagged t rd imm itag
    | AUIPC (rd, imm) -> set_reg_tagged t rd (pc0 + imm) itag
    | JAL (rd, off) ->
        set_reg_tagged t rd (pc0 + 4) itag;
        branch_to t (pc0 + off)
    | JALR (rd, rs1, off) ->
        if M.tracking && not fast then
          check_branch t (rt t rs1) "indirect jump target";
        let target = mask32 (regs.(rs1) + off) land lnot 1 in
        set_reg_tagged t rd (pc0 + 4) itag;
        branch_to t target
    | BEQ (a, b, off) -> cond_branch t fast pc0 a b off (regs.(a) = regs.(b))
    | BNE (a, b, off) -> cond_branch t fast pc0 a b off (regs.(a) <> regs.(b))
    | BLT (a, b, off) ->
        cond_branch t fast pc0 a b off (signed regs.(a) < signed regs.(b))
    | BGE (a, b, off) ->
        cond_branch t fast pc0 a b off (signed regs.(a) >= signed regs.(b))
    | BLTU (a, b, off) -> cond_branch t fast pc0 a b off (regs.(a) < regs.(b))
    | BGEU (a, b, off) -> cond_branch t fast pc0 a b off (regs.(a) >= regs.(b))
    | LB (rd, rs1, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then check_mem_addr t (rt t rs1) addr;
        let v = do_load t ~width:1 ~addr in
        set_reg_tagged t rd
          (if v land 0x80 <> 0 then v lor 0xffffff00 else v)
          (Bus_if.last_tag t.bus)
    | LH (rd, rs1, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then check_mem_addr t (rt t rs1) addr;
        let v = do_load t ~width:2 ~addr in
        set_reg_tagged t rd
          (if v land 0x8000 <> 0 then v lor 0xffff0000 else v)
          (Bus_if.last_tag t.bus)
    | LW (rd, rs1, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then check_mem_addr t (rt t rs1) addr;
        let v = do_load t ~width:4 ~addr in
        set_reg_tagged t rd v (Bus_if.last_tag t.bus)
    | LBU (rd, rs1, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then check_mem_addr t (rt t rs1) addr;
        let v = do_load t ~width:1 ~addr in
        set_reg_tagged t rd v (Bus_if.last_tag t.bus)
    | LHU (rd, rs1, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then check_mem_addr t (rt t rs1) addr;
        let v = do_load t ~width:2 ~addr in
        set_reg_tagged t rd v (Bus_if.last_tag t.bus)
    | SB (rs1, rs2, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then begin
          check_mem_addr t (rt t rs1) addr;
          check_store_region t ~addr ~width:1 ~tag:(rt t rs2)
        end;
        do_store t ~width:1 ~addr ~value:regs.(rs2) ~tag:(rt t rs2)
    | SH (rs1, rs2, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then begin
          check_mem_addr t (rt t rs1) addr;
          check_store_region t ~addr ~width:2 ~tag:(rt t rs2)
        end;
        do_store t ~width:2 ~addr ~value:regs.(rs2) ~tag:(rt t rs2)
    | SW (rs1, rs2, off) ->
        let addr = mask32 (regs.(rs1) + off) in
        if M.tracking && not fast then begin
          check_mem_addr t (rt t rs1) addr;
          check_store_region t ~addr ~width:4 ~tag:(rt t rs2)
        end;
        do_store t ~width:4 ~addr ~value:regs.(rs2) ~tag:(rt t rs2)
    | ADDI (rd, rs1, imm) ->
        set_reg_tagged t rd (regs.(rs1) + imm) (tag1 t fast itag rs1)
    | SLTI (rd, rs1, imm) ->
        set_reg_tagged t rd (if signed regs.(rs1) < imm then 1 else 0)
          (tag1 t fast itag rs1)
    | SLTIU (rd, rs1, imm) ->
        set_reg_tagged t rd
          (if regs.(rs1) < mask32 imm then 1 else 0)
          (tag1 t fast itag rs1)
    | XORI (rd, rs1, imm) ->
        set_reg_tagged t rd (regs.(rs1) lxor mask32 imm) (tag1 t fast itag rs1)
    | ORI (rd, rs1, imm) ->
        set_reg_tagged t rd (regs.(rs1) lor mask32 imm) (tag1 t fast itag rs1)
    | ANDI (rd, rs1, imm) ->
        set_reg_tagged t rd (regs.(rs1) land mask32 imm) (tag1 t fast itag rs1)
    | SLLI (rd, rs1, sh) ->
        set_reg_tagged t rd (regs.(rs1) lsl sh) (tag1 t fast itag rs1)
    | SRLI (rd, rs1, sh) ->
        set_reg_tagged t rd (regs.(rs1) lsr sh) (tag1 t fast itag rs1)
    | SRAI (rd, rs1, sh) ->
        set_reg_tagged t rd (signed regs.(rs1) asr sh) (tag1 t fast itag rs1)
    | ADD (rd, a, b) ->
        set_reg_tagged t rd (regs.(a) + regs.(b)) (tag2 t fast itag a b)
    | SUB (rd, a, b) ->
        set_reg_tagged t rd (regs.(a) - regs.(b)) (tag2 t fast itag a b)
    | SLL (rd, a, b) ->
        set_reg_tagged t rd (regs.(a) lsl (regs.(b) land 31))
          (tag2 t fast itag a b)
    | SLT (rd, a, b) ->
        set_reg_tagged t rd
          (if signed regs.(a) < signed regs.(b) then 1 else 0)
          (tag2 t fast itag a b)
    | SLTU (rd, a, b) ->
        set_reg_tagged t rd (if regs.(a) < regs.(b) then 1 else 0)
          (tag2 t fast itag a b)
    | XOR (rd, a, b) ->
        set_reg_tagged t rd (regs.(a) lxor regs.(b)) (tag2 t fast itag a b)
    | SRL (rd, a, b) ->
        set_reg_tagged t rd (regs.(a) lsr (regs.(b) land 31))
          (tag2 t fast itag a b)
    | SRA (rd, a, b) ->
        set_reg_tagged t rd (signed regs.(a) asr (regs.(b) land 31))
          (tag2 t fast itag a b)
    | OR (rd, a, b) ->
        set_reg_tagged t rd (regs.(a) lor regs.(b)) (tag2 t fast itag a b)
    | AND (rd, a, b) ->
        set_reg_tagged t rd (regs.(a) land regs.(b)) (tag2 t fast itag a b)
    | MUL (rd, a, b) ->
        let p = Int64.mul (Int64.of_int regs.(a)) (Int64.of_int regs.(b)) in
        set_reg_tagged t rd (Int64.to_int p land 0xffffffff)
          (tag2 t fast itag a b)
    | MULH (rd, a, b) ->
        let p =
          Int64.mul
            (Int64.of_int (signed regs.(a)))
            (Int64.of_int (signed regs.(b)))
        in
        set_reg_tagged t rd
          (Int64.to_int (Int64.shift_right p 32) land 0xffffffff)
          (tag2 t fast itag a b)
    | MULHSU (rd, a, b) ->
        let p =
          Int64.mul (Int64.of_int (signed regs.(a))) (Int64.of_int regs.(b))
        in
        set_reg_tagged t rd
          (Int64.to_int (Int64.shift_right p 32) land 0xffffffff)
          (tag2 t fast itag a b)
    | MULHU (rd, a, b) ->
        let p = Int64.mul (Int64.of_int regs.(a)) (Int64.of_int regs.(b)) in
        set_reg_tagged t rd
          (Int64.to_int (Int64.shift_right_logical p 32) land 0xffffffff)
          (tag2 t fast itag a b)
    | DIV (rd, a, b) ->
        let x = signed regs.(a) and y = signed regs.(b) in
        let q =
          if y = 0 then -1
          else if x = -0x80000000 && y = -1 then -0x80000000
          else
            (* OCaml division truncates toward zero, matching RISC-V. *)
            x / y
        in
        set_reg_tagged t rd q (tag2 t fast itag a b)
    | DIVU (rd, a, b) ->
        let q = if regs.(b) = 0 then 0xffffffff else regs.(a) / regs.(b) in
        set_reg_tagged t rd q (tag2 t fast itag a b)
    | REM (rd, a, b) ->
        let x = signed regs.(a) and y = signed regs.(b) in
        let r =
          if y = 0 then x
          else if x = -0x80000000 && y = -1 then 0
          else x mod y
        in
        set_reg_tagged t rd r (tag2 t fast itag a b)
    | REMU (rd, a, b) ->
        let r = if regs.(b) = 0 then regs.(a) else regs.(a) mod regs.(b) in
        set_reg_tagged t rd r (tag2 t fast itag a b)
    | FENCE -> ()
    | ECALL ->
        if t.priv = Csr.priv_m && regs.(17) = 93 then
          halt t (Exited (signed regs.(10)))
        else begin
          (* Syscall arguments are an explicit declassification gate: every
             argument register must meet the gate clearance; admitted
             arguments above the declassified class are downgraded, and
             each downgrade is recorded by the monitor. *)
          (if M.tracking then
             match t.policy.Dift.Policy.ecall_gate with
             | Some g ->
                 for rno = 10 to 15 do
                   let tag = rtags.(rno) in
                   if not (allowed t tag g.Dift.Policy.g_clearance) then
                     violation t ~kind:(Dift.Violation.Custom "ecall-gate")
                       ~data_tag:tag ~required:g.Dift.Policy.g_clearance
                       (Printf.sprintf "ecall argument a%d" (rno - 10))
                   else if
                     tag <> g.Dift.Policy.g_declass
                     && not
                          (Dift.Lattice.allowed_flow t.lat tag
                             g.Dift.Policy.g_declass)
                   then begin
                     rtags.(rno) <- g.Dift.Policy.g_declass;
                     Dift.Monitor.report t.monitor
                       (Dift.Monitor.Declassified
                          {
                            where = Printf.sprintf "ecall-gate(a%d)" (rno - 10);
                            from_tag = tag;
                            to_tag = g.Dift.Policy.g_declass;
                          })
                   end
                 done
             | None -> ());
          trap t
            ~cause:
              (if t.priv = Csr.priv_m then Csr.cause_ecall_m
               else Csr.cause_ecall_u)
            ~tval:0
        end
    | EBREAK ->
        (* With a handler installed, ebreak is an architectural breakpoint
           trap; without one it keeps the simulator's stop convention. *)
        if Csr.mtvec_base t.csrf.Csr.v_mtvec <> 0 then
          trap t ~cause:Csr.cause_breakpoint ~tval:pc0
        else halt t Breakpoint
    | MRET ->
        if t.priv <> Csr.priv_m then
          trap t ~cause:Csr.cause_illegal ~tval:t.insn_word
        else begin
          let c = t.csrf in
          let s = c.Csr.v_mstatus in
          let mpie = (s lsr 7) land 1 in
          let mpp = Csr.mstatus_mpp s in
          (* Unstack: MIE <- MPIE, MPIE <- 1, privilege <- MPP, MPP <- U. *)
          c.Csr.v_mstatus <-
            s
            land lnot (Csr.mstatus_mie lor Csr.mstatus_mpp_mask)
            lor (mpie lsl 3) lor Csr.mstatus_mpie;
          if M.tracking then check_branch t c.Csr.t_mepc "mret target (mepc)";
          set_priv t mpp;
          branch_to t c.Csr.v_mepc;
          match t.on_trap with
          | Some f -> f (Trap_return { target = t.pc; to_priv = mpp })
          | None -> ()
        end
    | WFI ->
        if t.csrf.Csr.v_mip land t.csrf.Csr.v_mie = 0 then t.in_wfi <- true
    | CSRRW (rd, rs1, n) ->
        do_csr t rd n ~src_v:regs.(rs1) ~src_t:(rt t rs1) ~op:Op_w
          ~do_write:true
    | CSRRS (rd, rs1, n) ->
        do_csr t rd n ~src_v:regs.(rs1) ~src_t:(rt t rs1) ~op:Op_s
          ~do_write:(rs1 <> 0)
    | CSRRC (rd, rs1, n) ->
        do_csr t rd n ~src_v:regs.(rs1) ~src_t:(rt t rs1) ~op:Op_c
          ~do_write:(rs1 <> 0)
    | CSRRWI (rd, z, n) ->
        do_csr t rd n ~src_v:z ~src_t:itag ~op:Op_w ~do_write:true
    | CSRRSI (rd, z, n) ->
        do_csr t rd n ~src_v:z ~src_t:itag ~op:Op_s ~do_write:(z <> 0)
    | CSRRCI (rd, z, n) ->
        do_csr t rd n ~src_v:z ~src_t:itag ~op:Op_c ~do_write:(z <> 0)
    | ILLEGAL w -> trap t ~cause:Csr.cause_illegal ~tval:w

  let decode_slow t word =
    try Hashtbl.find t.decode_cache word
    with Not_found ->
      let insn = Decode.decode word in
      Hashtbl.add t.decode_cache word insn;
      insn

  let decode_cached t pc word =
    let idx = (pc - t.pc_cache_base) lsr 2 in
    if idx >= 0 && idx < Table.length t.pc_cache_words then
      if Table.get t.pc_cache_words idx = word then
        Table.get t.pc_cache_insns idx
      else begin
        let insn = Decode.decode word in
        Table.set t.pc_cache_words idx word;
        Table.set t.pc_cache_insns idx insn;
        insn
      end
    else decode_slow t word

  let step t =
    let c = t.csrf in
    if
      (t.priv <> Csr.priv_m || c.Csr.v_mstatus land Csr.mstatus_mie <> 0)
      && c.Csr.v_mip land c.Csr.v_mie <> 0
    then take_interrupt t
    else begin
      let pc0 = t.pc in
      t.cur_pc <- pc0;
      if pc0 land 3 <> 0 then begin
        (* Misaligned fetch faults at the fetch itself: epc and mtval are
           the misaligned target (branch targets are encoded in multiples
           of 2, so only bit 1 can be set). *)
        enter_trap t ~cause:Csr.cause_fetch_misaligned ~tval:pc0 ~epc:pc0;
        t.instret <- t.instret + 1
      end
      else
      match
        try
          t.insn_word <- Bus_if.load t.bus ~width:4 ~addr:pc0;
          true
        with Bus_if.Bus_error _ ->
          enter_trap t ~cause:Csr.cause_fetch_fault ~tval:pc0 ~epc:pc0;
          false
      with
      | false -> t.instret <- t.instret + 1
      | true ->
          if M.tracking then begin
            t.insn_tag <- Bus_if.last_tag t.bus;
            check_fetch t t.insn_tag
          end;
          let insn = decode_cached t pc0 t.insn_word in
          (match t.trace with Some f -> f pc0 insn | None -> ());
          t.instret <- t.instret + 1;
          t.local_cycles <- t.local_cycles + 1;
          t.pc <- mask32 (pc0 + 4);
          (try execute t insn with Exit -> ())
    end

  (* --- Block dispatch ------------------------------------------------ *)

  (* M-mode interrupts are always enabled below M (mstatus.MIE only gates
     them at machine level, per the privileged spec). *)
  let interrupt_pending t =
    let c = t.csrf in
    (t.priv <> Csr.priv_m || c.Csr.v_mstatus land Csr.mstatus_mie <> 0)
    && c.Csr.v_mip land c.Csr.v_mie <> 0

  (* Fetch-decode a block starting at [pc] (word-aligned, inside the DMI
     region). DMI loads are side-effect free, so probing ahead of execution
     is safe; words are re-checked against nothing afterwards — the
     invalidation hooks keep the cache coherent instead. *)
  let build_block t pc =
    let insns = ref [] and words = ref [] and tags = ref [] in
    let n = ref 0 in
    let addr = ref pc in
    let all_pub = ref true in
    let stop = ref false in
    while (not !stop) && !n < max_block_insns && !addr + 3 <= t.blk_limit do
      let w = Bus_if.load t.bus ~width:4 ~addr:!addr in
      let tag = if M.tracking then Bus_if.last_tag t.bus else t.pub in
      let insn = decode_cached t !addr w in
      if block_breaker insn then stop := true
      else begin
        insns := insn :: !insns;
        words := w :: !words;
        tags := tag :: !tags;
        if tag <> t.pub then all_pub := false;
        incr n;
        addr := !addr + 4;
        if block_ender insn then stop := true
      end
    done;
    let b =
      {
        b_pc = pc;
        b_insns = Array.of_list (List.rev !insns);
        b_words = Array.of_list (List.rev !words);
        b_tags = (if M.tracking then Array.of_list (List.rev !tags) else [||]);
        b_fast = !all_pub && !n > 0;
      }
    in
    t.n_blocks <- t.n_blocks + 1;
    if pc < t.code_lo then t.code_lo <- pc;
    let last = pc + (4 * max 1 !n) - 1 in
    if last > t.code_hi then t.code_hi <- last;
    b

  let regs_all_pub t =
    let rtags = t.rtags and pub = t.pub in
    let ok = ref true in
    let i = ref 1 in
    while !ok && !i < 32 do
      if Array.unsafe_get rtags !i <> pub then ok := false;
      incr i
    done;
    !ok

  (* Execute instructions from a cached block. Per-instruction semantics
     mirror {!step} exactly (ordering of trace / instret / pc update /
     execute); the loop additionally stops at the instruction budget, the
     sync quantum, a pending interrupt, a taken branch or trap, or when an
     invalidation touched cached code (self-modifying stores take effect
     from the very next instruction, as in single-step mode). *)
  let exec_block t b =
    let epoch0 = t.flush_epoch in
    let n = Array.length b.b_insns in
    if
      t.fast_enabled && b.b_fast
      && regs_all_pub t
      && Dift.Monitor.fast_path_ok t.monitor
    then begin
      t.fast <- true;
      (* LUI/AUIPC/JAL/JALR read the fetch tag through [t.insn_tag]. *)
      t.insn_tag <- t.pub
    end;
    let i = ref 0 in
    let continue = ref true in
    (try
       while !continue && !i < n do
         if
           !i > 0
           && (t.instret >= t.max_insns
              || t.exit_reason <> Running
              || t.local_cycles >= t.quantum
              || t.flush_epoch <> epoch0
              || interrupt_pending t)
         then continue := false
         else begin
           let pc0 = t.pc in
           t.cur_pc <- pc0;
           let insn = Array.unsafe_get b.b_insns !i in
           if M.tracking then begin
             if t.fast then t.n_fast <- t.n_fast + 1
             else begin
               t.insn_word <- Array.unsafe_get b.b_words !i;
               t.insn_tag <- Array.unsafe_get b.b_tags !i;
               check_fetch t t.insn_tag
             end
           end;
           (match t.trace with Some f -> f pc0 insn | None -> ());
           t.instret <- t.instret + 1;
           t.local_cycles <- t.local_cycles + 1;
           t.pc <- mask32 (pc0 + 4);
           (try execute t insn with Exit -> ());
           incr i;
           if t.pc <> mask32 (pc0 + 4) then continue := false
         end
       done
     with e ->
       t.fast <- false;
       raise e);
    t.fast <- false

  (* One scheduling round: take a pending interrupt, or run (up to) one
     basic block from the cache, building it on a miss; pcs outside the
     cacheable region and system instructions fall back to {!step}. *)
  let dispatch t =
    if interrupt_pending t then take_interrupt t
    else begin
      let pc0 = t.pc in
      let idx = (pc0 - t.blk_base) lsr 2 in
      if pc0 land 3 <> 0 || idx >= Table.length t.blocks then step t
      else
        let b =
          match Table.get t.blocks idx with
          | Some b -> b
          | None ->
              let b = build_block t pc0 in
              Table.set t.blocks idx (Some b);
              b
        in
        if Array.length b.b_insns = 0 then step t else exec_block t b
    end

  (* --- Threaded-code block compiler ---------------------------------- *)

  (* The threaded engine compiles each decoded block into a chain of
     closures, one per instruction, with register indices, immediates and
     fetch tags pre-resolved at compile time. Closures are chained
     tail-first (instruction [i] captures instruction [i+1]'s closure), so
     running a block is a single indirect call. Every chain stop condition
     of {!exec_block} is compiled into the guards below; the retirement
     protocol (cur_pc / fetch bookkeeping / trace / instret / pc update)
     is replicated exactly so both engines produce identical architectural
     state, tags, counters, hook streams and snapshots — pinned by
     test_threaded and the difftest engine-diff leg. *)

  (* Stop conditions checked before every chained instruction except the
     first (mirrors exec_block's [!i > 0] guard; the dispatcher itself
     re-checks them between blocks, and never stop-checking the head keeps
     quantum = 0 configurations live). *)
  let chain_stalled t =
    t.instret >= t.max_insns
    || t.exit_reason <> Running
    || t.local_cycles >= t.quantum
    || t.flush_epoch <> t.chain_epoch
    || interrupt_pending t

  let chain_terminator () = ()

  (* Full-semantics variant: the retirement shell is compiled per
     instruction (pc, word and fetch tag are constants); the body shares
     {!execute}, whose operands were pre-resolved by decoding, so tag
     propagation and clearance checks are identical to the interpreter by
     construction. Runs only with [t.fast] false (block entry either took
     the fast chain or this one).

     [exit_k] runs when control leaves the straight line (a taken branch
     or trap): the chain terminator for a standalone block, or a
     superblock seam that continues into the chained successor when the
     divergence lands exactly on it. *)
  let compile_full t ~guarded ~pc0 ~word ~itag ~insn ~next ~exit_k =
    let next_pc = mask32 (pc0 + 4) in
    (* Captured at compile time; set_trace drops compiled blocks. *)
    let traced = t.trace in
    fun () ->
      if (not guarded) || not (chain_stalled t) then begin
        t.cur_pc <- pc0;
        if M.tracking then begin
          t.insn_word <- word;
          t.insn_tag <- itag;
          check_fetch t itag
        end;
        (match traced with Some f -> f pc0 insn | None -> ());
        t.instret <- t.instret + 1;
        t.local_cycles <- t.local_cycles + 1;
        t.pc <- next_pc;
        (try execute t insn with Exit -> ());
        if t.pc = next_pc then next () else exit_k ()
      end

  (* --- jalr inline caches --------------------------------------------- *)

  let ic_demoted = -2

  (* Monomorphic-install / demote state machine shared by both jalr
     variants. On a miss with an empty (or epoch-invalidated) cache the
     current target's compiled chain is installed if it exists; a second
     distinct target demotes the site for good. Never *enters* a chain —
     control falls back to the dispatcher, which re-checks everything. *)
  let ic_miss t ic ~tgt ~entry_of =
    t.n_ic_miss <- t.n_ic_miss + 1;
    if ic.ic_pc = tgt || ic.ic_pc = -1 then begin
      if tgt land 3 = 0 then
        let idx = (tgt - t.blk_base) lsr 2 in
        if idx >= 0 && idx < Table.length t.cblocks then
          match Table.get t.cblocks idx with
          | Some cb when cb.cb_n > 0 ->
              ic.ic_pc <- tgt;
              ic.ic_epoch <- t.flush_epoch;
              ic.ic_entry <- entry_of cb
          | _ -> ()
    end
    else ic.ic_pc <- ic_demoted

  (* Full-semantics jalr with an inline cache: replicates {!execute}'s
     JALR case inside the retirement shell (check before target, target
     before link write — rd may alias rs1), then jumps straight to the
     predicted target's chain when the prediction holds and no stop
     condition is pending. Only built by the superblock engine. *)
  let compile_full_jalr t ~guarded ~pc0 ~word ~itag ~insn ~rd ~rs1 ~off ~next =
    let next_pc = mask32 (pc0 + 4) in
    let traced = t.trace in
    let ic = { ic_pc = -1; ic_epoch = -1; ic_entry = chain_terminator } in
    let entry_of cb = cb.cb_full in
    let regs = t.regs and rtags = t.rtags in
    fun () ->
      if (not guarded) || not (chain_stalled t) then begin
        t.cur_pc <- pc0;
        if M.tracking then begin
          t.insn_word <- word;
          t.insn_tag <- itag;
          check_fetch t itag
        end;
        (match traced with Some f -> f pc0 insn | None -> ());
        t.instret <- t.instret + 1;
        t.local_cycles <- t.local_cycles + 1;
        t.pc <- next_pc;
        if M.tracking && not t.fast then
          check_branch t (Array.unsafe_get rtags rs1) "indirect jump target";
        let tgt = mask32 (Array.unsafe_get regs rs1 + off) land lnot 1 in
        set_reg_tagged t rd next_pc itag;
        t.pc <- tgt;
        if tgt = next_pc then next ()
        else if
          ic.ic_pc = tgt
          && ic.ic_epoch = t.flush_epoch
          && not (chain_stalled t)
        then begin
          t.n_ic_hits <- t.n_ic_hits + 1;
          ic.ic_entry ()
        end
        else ic_miss t ic ~tgt ~entry_of
      end

  (* Untainted specialization (tracking mode): entered only when every
     cached word and every register carries the bottom tag, so all tag
     plumbing — propagation, lub merges, clearance checks — is compiled
     out, not just skipped. Only a load can break the invariant
     mid-block: a non-bottom loaded tag drops [t.fast] and the chain
     falls through to the full variant's next closure. Bodies replicate
     {!execute} value semantics with operands and targets folded into
     the closure. *)
  let compile_fast t ~guarded ~pc0 ~insn ~next ~fallback ~exit_k =
    let open Insn in
    let regs = t.regs and rtags = t.rtags in
    let next_pc = mask32 (pc0 + 4) in
    (* The per-instruction hook is specialized at compile time — the
       common no-hook case pays nothing per retired instruction.
       {!set_trace} drops every compiled block, so a chain can never
       outlive the hook value it captured. *)
    let traced = t.trace in
    (* Retirement bookkeeping is written out inline in every shape below
       rather than shared through a [retire] closure: without flambda a
       shared closure costs an extra indirect call on every retired
       instruction, which is a measurable slice of the margin this
       engine exists to win. Register indices come from 5-bit decode
       fields, so unsafe accesses on the 32-entry files are in bounds by
       construction. *)
    (* Straight-line ops cannot redirect control: continue unconditionally. *)
    let straight body =
     fun () ->
      if (not guarded) || not (chain_stalled t) then begin
        t.cur_pc <- pc0;
        t.n_fast <- t.n_fast + 1;
        (match traced with Some f -> f pc0 insn | None -> ());
        t.instret <- t.instret + 1;
        t.local_cycles <- t.local_cycles + 1;
        t.pc <- next_pc;
        body ();
        next ()
      end
    in
    (* Taken branches / jumps landing exactly on [next_pc] continue the
       chain, exactly like exec_block's pc test; any other landing site
       exits through [exit_k] (terminator, or superblock seam). The
       taken-path continuation is resolved at compile time. *)
    let cond_branch cond tgt =
     let taken_k = if tgt = next_pc then next else exit_k in
     fun () ->
      if (not guarded) || not (chain_stalled t) then begin
        t.cur_pc <- pc0;
        t.n_fast <- t.n_fast + 1;
        (match traced with Some f -> f pc0 insn | None -> ());
        t.instret <- t.instret + 1;
        t.local_cycles <- t.local_cycles + 1;
        t.pc <- next_pc;
        if cond () then begin
          t.pc <- tgt;
          taken_k ()
        end
        else next ()
      end
    in
    (* Loads keep their side effect even for rd = x0; a tainted result
       ends the specialization and resumes on the full chain. A faulting
       load traps exactly like {!do_load} (the trap itself cannot taint:
       CSR tags are written as bottom). *)
    let load width sext rd rs1 off =
     (* Alignment strictness is a create-time constant, so the check is
        specialized away on default cores. *)
     let align = t.strict_align && width > 1 in
     fun () ->
      if (not guarded) || not (chain_stalled t) then begin
        t.cur_pc <- pc0;
        t.n_fast <- t.n_fast + 1;
        (match traced with Some f -> f pc0 insn | None -> ());
        t.instret <- t.instret + 1;
        t.local_cycles <- t.local_cycles + 1;
        t.pc <- next_pc;
        let addr = mask32 (Array.unsafe_get regs rs1 + off) in
        if align && addr land (width - 1) <> 0 then begin
          trap t ~cause:Csr.cause_load_misaligned ~tval:addr;
          t.insn_tag <- t.pub
        end
        else
          (try
             let v = sext (Bus_if.load t.bus ~width ~addr) in
             if rd <> 0 then begin
               Array.unsafe_set regs rd (mask32 v);
               if M.tracking then begin
                 let tag = Bus_if.last_tag t.bus in
                 if tag <> t.pub then begin
                   Array.unsafe_set rtags rd tag;
                   t.fast <- false
                 end
               end
             end
           with Bus_if.Bus_error _ ->
             trap t ~cause:Csr.cause_load_fault ~tval:addr;
             t.insn_tag <- t.pub);
        if t.pc = next_pc then (if t.fast then next () else fallback ())
        else exit_k ()
      end
    in
    (* Stores cannot taint registers; the written tag is bottom by the
       fast-path invariant (rs2's tag is bottom whenever this runs). *)
    let store width rs1 rs2 off =
     let align = t.strict_align && width > 1 in
     fun () ->
      if (not guarded) || not (chain_stalled t) then begin
        t.cur_pc <- pc0;
        t.n_fast <- t.n_fast + 1;
        (match traced with Some f -> f pc0 insn | None -> ());
        t.instret <- t.instret + 1;
        t.local_cycles <- t.local_cycles + 1;
        t.pc <- next_pc;
        let addr = mask32 (Array.unsafe_get regs rs1 + off) in
        if align && addr land (width - 1) <> 0 then
          trap t ~cause:Csr.cause_store_misaligned ~tval:addr
        else
          (try
             Bus_if.store t.bus ~width ~addr
               ~value:(Array.unsafe_get regs rs2)
               ~tag:t.pub
           with Bus_if.Bus_error _ ->
             trap t ~cause:Csr.cause_store_fault ~tval:addr);
        if t.pc = next_pc then next () else exit_k ()
      end
    in
    let sext8 v = if v land 0x80 <> 0 then v lor 0xffffff00 else v in
    let sext16 v = if v land 0x8000 <> 0 then v lor 0xffff0000 else v in
    let id v = v in
    match insn with
    | LUI (rd, imm) ->
        let v = mask32 imm in
        straight (fun () -> if rd <> 0 then regs.(rd) <- v)
    | AUIPC (rd, imm) ->
        let v = mask32 (pc0 + imm) in
        straight (fun () -> if rd <> 0 then regs.(rd) <- v)
    | JAL (rd, off) ->
        let tgt = mask32 (pc0 + off) in
        let taken_k = if tgt = next_pc then next else exit_k in
        fun () ->
          if (not guarded) || not (chain_stalled t) then begin
            t.cur_pc <- pc0;
            t.n_fast <- t.n_fast + 1;
            (match traced with Some f -> f pc0 insn | None -> ());
            t.instret <- t.instret + 1;
            t.local_cycles <- t.local_cycles + 1;
            if rd <> 0 then regs.(rd) <- next_pc;
            t.pc <- tgt;
            taken_k ()
          end
    | JALR (rd, rs1, off) ->
        if not t.superblocks then
          (fun () ->
            if (not guarded) || not (chain_stalled t) then begin
              t.cur_pc <- pc0;
              t.n_fast <- t.n_fast + 1;
              (match traced with Some f -> f pc0 insn | None -> ());
              t.instret <- t.instret + 1;
              t.local_cycles <- t.local_cycles + 1;
              (* Target before link write: rd may alias rs1. *)
              let tgt = mask32 (regs.(rs1) + off) land lnot 1 in
              if rd <> 0 then regs.(rd) <- next_pc;
              t.pc <- tgt;
              if tgt = next_pc then next ()
            end)
        else begin
          (* Superblock engine: inline-cache the jalr target. A hit jumps
             straight into the predicted chain's fast entry; a target
             without a fast variant gets a demoting trampoline so the
             prediction still skips the dispatcher. The tag invariant
             carries over the jump: [t.fast] true here means every
             register tag is bottom, which is exactly the fast-entry
             precondition the dispatcher would re-derive. *)
          let ic = { ic_pc = -1; ic_epoch = -1; ic_entry = chain_terminator } in
          let entry_of cb =
            match cb.cb_fast with
            | Some f -> f
            | None ->
                fun () ->
                  t.fast <- false;
                  cb.cb_full ()
          in
          fun () ->
            if (not guarded) || not (chain_stalled t) then begin
              t.cur_pc <- pc0;
              t.n_fast <- t.n_fast + 1;
              (match traced with Some f -> f pc0 insn | None -> ());
              t.instret <- t.instret + 1;
              t.local_cycles <- t.local_cycles + 1;
              (* Target before link write: rd may alias rs1. *)
              let tgt = mask32 (Array.unsafe_get regs rs1 + off) land lnot 1 in
              if rd <> 0 then Array.unsafe_set regs rd next_pc;
              t.pc <- tgt;
              if tgt = next_pc then next ()
              else if
                ic.ic_pc = tgt
                && ic.ic_epoch = t.flush_epoch
                && (not (chain_stalled t))
                && ((not M.tracking) || Dift.Monitor.fast_path_ok t.monitor)
              then begin
                t.n_ic_hits <- t.n_ic_hits + 1;
                ic.ic_entry ()
              end
              else ic_miss t ic ~tgt ~entry_of
            end
        end
    | BEQ (a, b, off) ->
        cond_branch (fun () -> regs.(a) = regs.(b)) (mask32 (pc0 + off))
    | BNE (a, b, off) ->
        cond_branch (fun () -> regs.(a) <> regs.(b)) (mask32 (pc0 + off))
    | BLT (a, b, off) ->
        cond_branch
          (fun () -> signed regs.(a) < signed regs.(b))
          (mask32 (pc0 + off))
    | BGE (a, b, off) ->
        cond_branch
          (fun () -> signed regs.(a) >= signed regs.(b))
          (mask32 (pc0 + off))
    | BLTU (a, b, off) ->
        cond_branch (fun () -> regs.(a) < regs.(b)) (mask32 (pc0 + off))
    | BGEU (a, b, off) ->
        cond_branch (fun () -> regs.(a) >= regs.(b)) (mask32 (pc0 + off))
    | LB (rd, rs1, off) -> load 1 sext8 rd rs1 off
    | LH (rd, rs1, off) -> load 2 sext16 rd rs1 off
    | LW (rd, rs1, off) -> load 4 id rd rs1 off
    | LBU (rd, rs1, off) -> load 1 id rd rs1 off
    | LHU (rd, rs1, off) -> load 2 id rd rs1 off
    | SB (rs1, rs2, off) -> store 1 rs1 rs2 off
    | SH (rs1, rs2, off) -> store 2 rs1 rs2 off
    | SW (rs1, rs2, off) -> store 4 rs1 rs2 off
    | ADDI (rd, rs1, imm) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- mask32 (regs.(rs1) + imm))
    | SLTI (rd, rs1, imm) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- (if signed regs.(rs1) < imm then 1 else 0))
    | SLTIU (rd, rs1, imm) ->
        let imm = mask32 imm in
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- (if regs.(rs1) < imm then 1 else 0))
    | XORI (rd, rs1, imm) ->
        let imm = mask32 imm in
        straight (fun () -> if rd <> 0 then regs.(rd) <- regs.(rs1) lxor imm)
    | ORI (rd, rs1, imm) ->
        let imm = mask32 imm in
        straight (fun () -> if rd <> 0 then regs.(rd) <- regs.(rs1) lor imm)
    | ANDI (rd, rs1, imm) ->
        let imm = mask32 imm in
        straight (fun () -> if rd <> 0 then regs.(rd) <- regs.(rs1) land imm)
    | SLLI (rd, rs1, sh) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- mask32 (regs.(rs1) lsl sh))
    | SRLI (rd, rs1, sh) ->
        straight (fun () -> if rd <> 0 then regs.(rd) <- regs.(rs1) lsr sh)
    | SRAI (rd, rs1, sh) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- mask32 (signed regs.(rs1) asr sh))
    | ADD (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- mask32 (regs.(a) + regs.(b)))
    | SUB (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- mask32 (regs.(a) - regs.(b)))
    | SLL (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- mask32 (regs.(a) lsl (regs.(b) land 31)))
    | SLT (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              regs.(rd) <- (if signed regs.(a) < signed regs.(b) then 1 else 0))
    | SLTU (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- (if regs.(a) < regs.(b) then 1 else 0))
    | XOR (rd, a, b) ->
        straight (fun () -> if rd <> 0 then regs.(rd) <- regs.(a) lxor regs.(b))
    | SRL (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then regs.(rd) <- regs.(a) lsr (regs.(b) land 31))
    | SRA (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              regs.(rd) <- mask32 (signed regs.(a) asr (regs.(b) land 31)))
    | OR (rd, a, b) ->
        straight (fun () -> if rd <> 0 then regs.(rd) <- regs.(a) lor regs.(b))
    | AND (rd, a, b) ->
        straight (fun () -> if rd <> 0 then regs.(rd) <- regs.(a) land regs.(b))
    | MUL (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              let p =
                Int64.mul (Int64.of_int regs.(a)) (Int64.of_int regs.(b))
              in
              regs.(rd) <- Int64.to_int p land 0xffffffff)
    | MULH (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              let p =
                Int64.mul
                  (Int64.of_int (signed regs.(a)))
                  (Int64.of_int (signed regs.(b)))
              in
              regs.(rd) <- Int64.to_int (Int64.shift_right p 32) land 0xffffffff)
    | MULHSU (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              let p =
                Int64.mul (Int64.of_int (signed regs.(a))) (Int64.of_int regs.(b))
              in
              regs.(rd) <- Int64.to_int (Int64.shift_right p 32) land 0xffffffff)
    | MULHU (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              let p =
                Int64.mul (Int64.of_int regs.(a)) (Int64.of_int regs.(b))
              in
              regs.(rd) <-
                Int64.to_int (Int64.shift_right_logical p 32) land 0xffffffff)
    | DIV (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then begin
              let x = signed regs.(a) and y = signed regs.(b) in
              let q =
                if y = 0 then -1
                else if x = -0x80000000 && y = -1 then -0x80000000
                else x / y
              in
              regs.(rd) <- mask32 q
            end)
    | DIVU (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              regs.(rd) <-
                (if regs.(b) = 0 then 0xffffffff else regs.(a) / regs.(b)))
    | REM (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then begin
              let x = signed regs.(a) and y = signed regs.(b) in
              let r =
                if y = 0 then x
                else if x = -0x80000000 && y = -1 then 0
                else x mod y
              in
              regs.(rd) <- mask32 r
            end)
    | REMU (rd, a, b) ->
        straight (fun () ->
            if rd <> 0 then
              regs.(rd) <-
                (if regs.(b) = 0 then regs.(a) else regs.(a) mod regs.(b)))
    | FENCE | ECALL | EBREAK | MRET | WFI
    | CSRRW _ | CSRRS _ | CSRRC _ | CSRRWI _ | CSRRSI _ | CSRRCI _
    | ILLEGAL _ ->
        (* Breakers never enter a block (see build_block). *)
        invalid_arg "compile_fast: breaker instruction in block"

  let compile_block ?link t (b : block) =
    let n = Array.length b.b_insns in
    let lo0 = b.b_pc and hi0 = b.b_pc + (4 * max 1 n) - 1 in
    if n = 0 then
      {
        cb_pc = b.b_pc;
        cb_n = 0;
        cb_full = chain_terminator;
        cb_fast = None;
        cb_blk = b;
        cb_lo = lo0;
        cb_hi = hi0;
        cb_edge_pc = -1;
        cb_edge_n = 0;
        cb_linked = false;
      }
    else begin
      (* Superblock seams: with a hot successor [link], every exit path of
         this block (slot [n] fall-off, taken branches, even a mid-block
         trap) funnels through a seam instead of the chain terminator. The
         seam continues straight into the successor's chain — eliding the
         dispatcher round, the pc/index lookup and, on the fast side, the
         31-register tag rescan — exactly when execution really landed on
         the successor and no stop condition is pending; anything else
         returns to the dispatcher as before. The fast seam re-checks only
         the monitor gate: [t.fast] being true is itself the proof that
         every register tag is still bottom (a tainted load would have
         dropped it before the seam). Entries are threaded through refs so
         a block chained to itself loops inside its own new chain. *)
      let full_tgt = ref chain_terminator in
      let fast_tgt = ref chain_terminator in
      let succ_pc = match link with Some s -> s.cb_pc | None -> -1 in
      let full_seam, fast_seam =
        match link with
        | None -> (chain_terminator, chain_terminator)
        | Some _ ->
            ( (fun () ->
                if t.pc = succ_pc && not (chain_stalled t) then begin
                  t.n_chain <- t.n_chain + 1;
                  !full_tgt ()
                end),
              fun () ->
                if
                  t.pc = succ_pc
                  && (not (chain_stalled t))
                  && ((not M.tracking) || Dift.Monitor.fast_path_ok t.monitor)
                then begin
                  t.n_chain <- t.n_chain + 1;
                  !fast_tgt ()
                end )
      in
      (* Built backwards so each closure captures its successor; slot [n]
         is the fall-off exit (terminator or seam). *)
      let full = Array.make (n + 1) full_seam in
      for i = n - 1 downto 0 do
        let itag = if M.tracking then b.b_tags.(i) else t.pub in
        full.(i) <-
          (match b.b_insns.(i) with
          | Insn.JALR (rd, rs1, off) when t.superblocks ->
              compile_full_jalr t ~guarded:(i > 0)
                ~pc0:(b.b_pc + (4 * i))
                ~word:b.b_words.(i) ~itag ~insn:b.b_insns.(i) ~rd ~rs1 ~off
                ~next:full.(i + 1)
          | insn ->
              compile_full t ~guarded:(i > 0)
                ~pc0:(b.b_pc + (4 * i))
                ~word:b.b_words.(i) ~itag ~insn
                ~next:full.(i + 1)
                ~exit_k:full_seam)
      done;
      let cb_fast =
        if t.fast_spec && b.b_fast then begin
          let fast = Array.make (n + 1) fast_seam in
          for i = n - 1 downto 0 do
            fast.(i) <-
              compile_fast t ~guarded:(i > 0)
                ~pc0:(b.b_pc + (4 * i))
                ~insn:b.b_insns.(i)
                ~next:fast.(i + 1)
                ~fallback:full.(i + 1)
                ~exit_k:fast_seam
          done;
          Some fast.(0)
        end
        else None
      in
      let cb_lo, cb_hi =
        match link with
        | Some s -> (min lo0 s.cb_lo, max hi0 s.cb_hi)
        | None -> (lo0, hi0)
      in
      let cb =
        {
          cb_pc = b.b_pc;
          cb_n = n;
          cb_full = full.(0);
          cb_fast;
          cb_blk = b;
          cb_lo;
          cb_hi;
          cb_edge_pc = -1;
          cb_edge_n = 0;
          cb_linked = link <> None;
        }
      in
      (match link with
      | None -> ()
      | Some succ when succ.cb_pc = b.b_pc ->
          (* Self-loop: the back edge re-enters this block's own new
             chain, so a hot loop body spins inside one chain until a
             stop condition (quantum, interrupt, ...) breaks it. Entries
             are tail calls, so the spin is stack-safe. *)
          full_tgt := cb.cb_full;
          fast_tgt :=
            (match cb.cb_fast with Some f -> f | None -> chain_terminator)
      | Some succ ->
          full_tgt := succ.cb_full;
          fast_tgt :=
            (match succ.cb_fast with
            | Some f -> f
            | None ->
                fun () ->
                  t.fast <- false;
                  succ.cb_full ()));
      cb
    end

  (* Consecutive observations of the same exit edge before the
     predecessor is recompiled into a superblock. *)
  let superblock_threshold = 8

  let ends_in_jalr b =
    let n = Array.length b.b_insns in
    n > 0 && (match b.b_insns.(n - 1) with Insn.JALR _ -> true | _ -> false)

  (* Recompile [pred] chained across its exit edge into [succ], replacing
     pred's cache slot and registering the new chain's two-block span for
     invalidation. Compiled from the stored decoded block — nothing is
     re-fetched, so [blocks_built] is unchanged. *)
  let link_superblock t pred pidx succ =
    let sb = compile_block ~link:succ t pred.cb_blk in
    Table.set t.cblocks pidx (Some sb);
    t.sblocks <- (pidx, sb) :: t.sblocks;
    t.n_superblocks <- t.n_superblocks + 1;
    sb

  (* Threaded-engine scheduling round: same structure as {!dispatch}, but
     a cache hit invokes the compiled chain instead of interpreting the
     block. The fast/full decision is made once per block entry, exactly
     like exec_block's fast-path gate. *)
  let dispatch_threaded t =
    if interrupt_pending t then begin
      t.prev_cb <- no_cb;
      take_interrupt t
    end
    else begin
      let pc0 = t.pc in
      let idx = (pc0 - t.blk_base) lsr 2 in
      if pc0 land 3 <> 0 || idx >= Table.length t.cblocks then begin
        t.prev_cb <- no_cb;
        step t
      end
      else
        let cb =
          match Table.get t.cblocks idx with
          | Some cb -> cb
          | None ->
              let cb = compile_block t (build_block t pc0) in
              Table.set t.cblocks idx (Some cb);
              cb
        in
        if cb.cb_n = 0 then begin
          t.prev_cb <- no_cb;
          step t
        end
        else begin
          (* Exit-edge profiling (superblock engine): each dispatcher
             entry is an edge from the chain that ran last round to
             [pc0]. When the same edge repeats superblock_threshold
             times, the predecessor is recompiled chained into this
             block — jalr exits are excluded (their inline caches cover
             them). The slot identity check refuses to resurrect a chain
             that was flushed since it last ran; a self-loop link swaps
             in the new chain for the current round as well. *)
          let cb =
            let p = t.prev_cb in
            if (not t.superblocks) || p.cb_linked then cb
            else if p.cb_edge_pc = pc0 then begin
              p.cb_edge_n <- p.cb_edge_n + 1;
              if
                p.cb_edge_n >= superblock_threshold
                && not (ends_in_jalr p.cb_blk)
              then begin
                let pidx = (p.cb_pc - t.blk_base) lsr 2 in
                match Table.get t.cblocks pidx with
                | Some cur when cur == p ->
                    let sb = link_superblock t p pidx cb in
                    if p.cb_pc = pc0 then sb else cb
                | _ -> cb
              end
              else cb
            end
            else begin
              p.cb_edge_pc <- pc0;
              p.cb_edge_n <- 1;
              cb
            end
          in
          t.prev_cb <- cb;
          t.chain_epoch <- t.flush_epoch;
          match cb.cb_fast with
          | Some f
            when (not M.tracking)
                 || (regs_all_pub t && Dift.Monitor.fast_path_ok t.monitor) ->
              t.fast <- true;
              (* LUI/AUIPC/JAL/JALR read the fetch tag through insn_tag. *)
              t.insn_tag <- t.pub;
              (try f ()
               with e ->
                 t.fast <- false;
                 raise e);
              t.fast <- false
          | _ -> cb.cb_full ()
        end
    end

  let unhalt t = t.exit_reason <- Running

  let set_pause_at t n = t.pause_at <- n
  let paused t = t.paused
  let clear_paused t = t.paused <- false

  let sync_time t =
    let elapsed =
      Sysc.Time.add
        (t.local_cycles * t.cycle_time)
        (Bus_if.take_delay t.bus)
    in
    t.local_cycles <- 0;
    if elapsed > 0 then begin
      Sysc.Kernel.notify_after t.sync_event elapsed;
      t.syncing <- true;
      if t.instret >= t.pause_at then begin
        (* Checkpoint request: stop the scheduler with the thread parked on
           its (pending, serialisable) sync notification. The pause is
           invisible to the simulation — the wakeup happens at exactly the
           instant it would have without it. *)
        t.paused <- true;
        t.pause_at <- max_int;
        Sysc.Kernel.stop t.kernel
      end;
      Sysc.Kernel.wait_event t.sync_event;
      t.syncing <- false
    end

  let spawn_thread ?(stop_kernel_on_halt = true) t =
    (* One scheduling round of the selected execution engine. *)
    let round =
      if not t.use_blocks then step
      else
        match t.engine with
        | Interp -> dispatch
        | Threaded | Threaded_superblock -> dispatch_threaded
    in
    Sysc.Kernel.spawn t.kernel ~name:"cpu" (fun () ->
        if t.syncing then begin
          (* Restored from a snapshot taken at a sync boundary: the wakeup
             is already pending (re-armed by the kernel restore); park on
             it like the saved thread was. *)
          Sysc.Kernel.wait_event t.sync_event;
          t.syncing <- false
        end;
        let running = ref true in
        while !running do
          if halted t || Sysc.Kernel.stopped t.kernel then running := false
          else if t.in_wfi then begin
            sync_time t;
            if t.csrf.Csr.v_mip land t.csrf.Csr.v_mie = 0 then
              Sysc.Kernel.wait_event t.irq_event
            else t.in_wfi <- false
          end
          else if t.instret >= t.max_insns then halt t Insn_limit
          else begin
            round t;
            if t.local_cycles >= t.quantum then sync_time t
          end
        done;
        sync_time t;
        if stop_kernel_on_halt then Sysc.Kernel.stop t.kernel)

  (* --- Snapshot ------------------------------------------------------- *)

  let encode_exit = function
    | Running -> (0, 0)
    | Exited code -> (1, code)
    | Breakpoint -> (2, 0)
    | Insn_limit -> (3, 0)

  let decode_exit tag code =
    match tag with
    | 0 -> Running
    | 1 -> Exited code
    | 2 -> Breakpoint
    | 3 -> Insn_limit
    | n -> raise (Snapshot.Codec.Corrupt (Printf.sprintf "bad exit reason %d" n))

  let save t w =
    let open Snapshot.Codec in
    Array.iter (fun v -> put_u32 w v) t.regs;
    Array.iter (fun v -> put_u32 w v) t.rtags;
    put_u32 w t.pc;
    put_u32 w t.cur_pc;
    put_u32 w t.insn_word;
    put_u32 w t.insn_tag;
    put_i64 w t.instret;
    put_i64 w t.local_cycles;
    put_bool w t.in_wfi;
    put_bool w t.syncing;
    let tag, code = encode_exit t.exit_reason in
    put_u8 w tag;
    put_i64 w code;
    let c = t.csrf in
    List.iter
      (fun v -> put_u32 w v)
      [ c.Csr.v_mstatus; c.Csr.v_mie; c.Csr.v_mip; c.Csr.v_mtvec;
        c.Csr.v_mscratch; c.Csr.v_mepc; c.Csr.v_mcause; c.Csr.v_mtval;
        c.Csr.t_mstatus; c.Csr.t_mie; c.Csr.t_mip; c.Csr.t_mtvec;
        c.Csr.t_mscratch; c.Csr.t_mepc; c.Csr.t_mcause; c.Csr.t_mtval ];
    (* v2: current privilege level. *)
    put_u8 w t.priv

  let load t r =
    let open Snapshot.Codec in
    for i = 0 to 31 do
      t.regs.(i) <- get_u32 r
    done;
    for i = 0 to 31 do
      t.rtags.(i) <- get_u32 r
    done;
    t.pc <- get_u32 r;
    t.cur_pc <- get_u32 r;
    t.insn_word <- get_u32 r;
    t.insn_tag <- get_u32 r;
    t.instret <- get_i64 r;
    t.local_cycles <- get_i64 r;
    t.in_wfi <- get_bool r;
    t.syncing <- get_bool r;
    let tag = get_u8 r in
    let code = get_i64 r in
    t.exit_reason <- decode_exit tag code;
    let c = t.csrf in
    c.Csr.v_mstatus <- get_u32 r;
    c.Csr.v_mie <- get_u32 r;
    c.Csr.v_mip <- get_u32 r;
    c.Csr.v_mtvec <- get_u32 r;
    c.Csr.v_mscratch <- get_u32 r;
    c.Csr.v_mepc <- get_u32 r;
    c.Csr.v_mcause <- get_u32 r;
    c.Csr.v_mtval <- get_u32 r;
    c.Csr.t_mstatus <- get_u32 r;
    c.Csr.t_mie <- get_u32 r;
    c.Csr.t_mip <- get_u32 r;
    c.Csr.t_mtvec <- get_u32 r;
    c.Csr.t_mscratch <- get_u32 r;
    c.Csr.t_mepc <- get_u32 r;
    c.Csr.t_mcause <- get_u32 r;
    c.Csr.t_mtval <- get_u32 r;
    (* v1 snapshots predate the privilege architecture; everything ran in
       machine mode then. [set_priv] so a privilege change invalidates any
       compiled chains. *)
    set_priv t
      (if Snapshot.Codec.reader_version r >= 2 then get_u8 r else Csr.priv_m);
    (* A snapshot taken at a pause has the thread parked on its sync
       notification ([syncing] = true); the restored core is back at that
       same checkpoint, so it counts as paused — which keeps it saveable
       again before anything runs. [clear_paused]/running simply drops the
       flag. *)
    t.paused <- t.syncing;
    t.pause_at <- max_int;
    t.fast <- false;
    (* The restored state came from an arbitrary other run: drop the
       exit-edge profile and force every inline cache to re-validate.
       (The memory restore already flushed the compiled blocks through
       the write hook; this covers cores restored without one.) *)
    t.prev_cb <- no_cb;
    t.flush_epoch <- t.flush_epoch + 1
end

module Vp = Make (struct let tracking = false end)
module Vp_dift = Make (struct let tracking = true end)
