(* The repository benchmark: Table II firmware, platform I/O, a difftest
   campaign and the forensics pipeline, as closed batches driven from one
   process. See README.md in this directory for the workloads, metrics
   and the layer predictions.

     main.exe --workload W --seed N --seconds S --trace 0|1

   prints a human-readable report followed, as the last line of standard
   output, by one JSON object {correct, attempted, failed, metrics}.
   --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
   ones, from a run that records spans and reads the layers' counters. *)

let pf = Printf.printf
let ms_of_ns ns = float_of_int ns /. 1e6

(* --- Accounting ------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* Every correctness check is one attempted operation; a failed check is
   a failed operation. *)
let check what ok detail =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s: %s\n%!" what (detail ())
  end

(* Timing samples by key. Nothing is kept while [recording] is off (the
   warm-up round) unless added with [add_always]. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let recording = ref false
let get k = Option.value (Hashtbl.find_opt samples k) ~default:[]
let add_always k v = Hashtbl.replace samples k (v :: get k)
let add k v = if !recording then add_always k v
let med k = Probe.median (get k)

(* Work a round does only on instrumented rounds of the traced run
   (ablation legs, the jobs=1 campaign, the oracle pass) is timed apart
   and kept out of the round's wall and CPU time, so instrumented and
   plain rounds compare like for like. *)
let aside_ns = ref 0
let aside_cpu_ns = ref 0

let aside f =
  let w = Probe.now_ns () and c = Probe.cpu_ns () in
  let v = f () in
  aside_ns := !aside_ns + (Probe.now_ns () - w);
  aside_cpu_ns := !aside_cpu_ns + (Probe.cpu_ns () - c);
  v

(* Deterministic counts read from the layers (last instrumented round). *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let set_count k v = Hashtbl.replace counts k v
let count k = Option.value (Hashtbl.find_opt counts k) ~default:0.

(* --- Workloads ------------------------------------------------------- *)

type kind = Compute | Platform | Campaign | Forensics

let kinds =
  [ ("compute", Compute); ("platform", Platform); ("campaign", Campaign);
    ("forensics", Forensics) ]

(* Firmware scale (Benchkit.Defs.table2 iteration multiplier): the
   compute set is halved so a round of its seven firmwares stays near a
   second and a run holds enough rounds for steady medians. *)
let scale_of = function Compute -> 0.5 | _ -> 1.0

let compute_fw =
  [ "hello"; "dispatch"; "qsort"; "dhrystone"; "primes"; "sha512";
    "freertos-tasks" ]
let platform_fw = [ "simple-sensor"; "immo-fixed" ]

(* The campaign's shape is that of the repository's own work-stealing
   campaign (bench/main.ml, `bench parallel`): 120 programs in shards of
   10, so 12 shards over nproc workers and an idle worker always finds a
   shard to steal. Each round runs it [harness_reps] times. The leg pass
   re-runs the first four shards' programs (the same programs, generated
   as the harness does). The ingested graph stores are those of the first
   [campaign_store_programs] programs of the same seeded stream, the rest
   traced once in the warm-up round: a directory of runs of the size a
   campaign leaves. *)
let campaign_programs = 120
let campaign_shard_size = 10
let harness_reps = 2
let campaign_leg_programs = 40
let campaign_store_programs = 240

(* Instructions between checkpoints of the checkpointed leg. *)
let stride = function
  | Compute -> 500_000
  | Platform -> 50_000
  | Campaign -> 1_000
  | Forensics -> 20_000

let jobs = max 1 (Parallelkit.Pool.default_jobs ())

let firmware kind names =
  let scale = scale_of kind in
  let all = Benchkit.Defs.table2 ~scale in
  List.map
    (fun n ->
      let d = List.find (fun d -> d.Benchkit.Defs.d_name = n) all in
      let challenges =
        if n = "immo-fixed" then Some (Benchkit.Defs.scaled scale 300) else None
      in
      Sim.of_def ?challenges d)
    names

(* The campaign's seed, derived from --seed only. *)
let campaign_seed seed =
  let s = Parallelkit.Campaign.splitmix64 (seed + 0x5eed) land 0x3fff_ffff in
  if s = 0 then 1 else s

(* The campaign's programs, generated exactly as the harness's shards do:
   one RNG per shard from the shard's derived seed, and coverage feedback
   from the VP+ leg into the shard's own table. *)
let gen_programs ~seed ~total =
  let cfg = Difftest.Harness.default in
  Parallelkit.Campaign.shards ~seed ~total ~shard_size:campaign_shard_size
  |> Array.to_list
  |> List.concat_map (fun (sh : Parallelkit.Campaign.shard) ->
         let rng = Difftest.Rng.create ~seed:sh.Parallelkit.Campaign.seed in
         let cov = Difftest.Coverage.create () in
         List.init sh.Parallelkit.Campaign.length (fun k ->
             let i = sh.Parallelkit.Campaign.start + k in
      let img, policy =
        Probe.span "difftest.gen" (fun () ->
            let prog = Difftest.Gen.program rng cov ~size:cfg.Difftest.Harness.size in
            let img =
              Probe.span "rv32_asm.assemble" (fun () -> Difftest.Prog.assemble prog)
            in
            (img, Difftest.Gen.policy rng img))
      in
      let percov = Difftest.Coverage.create () in
      ignore
        (Difftest.Oracle.run_vp ~tracking:true ~policy
           ~trace:(Difftest.Coverage.hook percov) img);
      Difftest.Coverage.merge ~into:cov percov;
      {
        Sim.name = Printf.sprintf "prog%03d" (i + 1);
        image = img;
        policy;
        sensor_period = None;
        aes = None;
        challenges = None;
        max_insns = Difftest.Oracle.max_insns;
      }))

let harness_config ~seed ~jobs =
  {
    Difftest.Harness.default with
    seed = campaign_seed seed;
    programs = campaign_programs;
    shard_size = campaign_shard_size;
    shrink = false;
    jobs;
  }

(* --- Simulated-statistics checks ------------------------------------- *)

(* Expected statistics per item: the reference table for Table II
   firmware, else the first VP+ observation in this run (generated
   programs), which every later leg must then reproduce. *)
let expected : (string, Sim.stats) Hashtbl.t = Hashtbl.create 32

let same ~tracking (a : Sim.stats) (b : Sim.stats) =
  { a with Sim.violations = 0 } = { b with Sim.violations = 0 }
  && ((not tracking) || a.Sim.violations = b.Sim.violations)

(* The work a run did, as opposed to its timing: the DMI and quantum
   ablations change simulated time and delta cycles by construction, so
   only these fields decide whether an ablation ran the same program. *)
let same_work (a : Sim.stats) (b : Sim.stats) =
  a.Sim.instret = b.Sim.instret
  && a.Sim.uart_bytes = b.Sim.uart_bytes
  && a.Sim.exit_code = b.Sim.exit_code
  && String.equal a.Sim.out_digest b.Sim.out_digest

let check_stats ~leg ~tracking (it : Sim.item) (s : Sim.stats) =
  let want =
    match Reference.find it.Sim.name with
    | Some r -> Some r
    | None -> Hashtbl.find_opt expected it.Sim.name
  in
  match want with
  | None when tracking -> Hashtbl.replace expected it.Sim.name s
  | None -> check (leg ^ " " ^ it.Sim.name) false (fun () -> "no expectation")
  | Some w ->
      check
        (Printf.sprintf "%s %s simulated statistics" leg it.Sim.name)
        (same ~tracking w s)
        (fun () ->
          Printf.sprintf "expected %s\n  observed %s" (Reference.row it.Sim.name w)
            (Reference.row it.Sim.name s))

(* --- Graph stores and queries ---------------------------------------- *)

type graphs = {
  dir : string;
  mutable files : string list;
  mutable queries : (int * Iftgraph.Query.pred) array;
  answers : (int, string) Hashtbl.t;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_store g name store =
  let path = Filename.concat g.dir (name ^ Iftgraph.Analyze.store_ext) in
  let t0 = Probe.now_ns () in
  Probe.span "iftgraph.store.write_file" (fun () ->
      Iftgraph.Store.write_file store path);
  add_always "store_write_ms" (ms_of_ns (Probe.now_ns () - t0));
  g.files <- g.files @ [ path ];
  let bytes = Int64.to_int (In_channel.with_open_bin path In_channel.length) in
  set_count "iftgraph.store_bytes" (count "iftgraph.store_bytes" +. float_of_int bytes);
  set_count "iftgraph.nodes"
    (count "iftgraph.nodes" +. float_of_int (Array.length store.Iftgraph.Store.nodes));
  set_count "iftgraph.edges"
    (count "iftgraph.edges" +. float_of_int (Array.length store.Iftgraph.Store.edges))

let ingest g =
  let t0 = Probe.now_ns () in
  let stores =
    Probe.span "iftgraph.analyze" (fun () ->
        Iftgraph.Analyze.stores (Iftgraph.Analyze.create g.files))
  in
  (Array.of_list stores, ms_of_ns (Probe.now_ns () - t0))

(* Every distinct backward predicate the stores can answer, shuffled by
   the seed; the first [n] form the query set. Predicates that match no
   node are kept only when no predicate matches anything (workloads whose
   graphs are empty): a query that finds nothing to walk would otherwise
   dilute the percentiles of the real ones. [asked] chooses the stores
   the predicates are drawn from, by name. *)
let query_set ~seed ~asked stores n =
  let module Q = Iftgraph.Query in
  let module S = Iftgraph.Store in
  let cands = ref [] in
  Array.iteri
    (fun si (name, (st : S.t), (idx : S.index)) ->
      if asked (Filename.remove_extension name) then begin
        let seen = Hashtbl.create 64 in
        let addq p =
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.replace seen p ();
            cands := (si, p) :: !cands
          end
        in
        (* Always askable, even of an empty graph (a run no tainted input
           reached): the first violation and every lattice class. *)
        addq (Q.P_violation 0);
        Array.iter (fun c -> addq (Q.P_tag c)) st.S.meta.S.classes;
        Array.iteri (fun k _ -> addq (Q.P_violation k)) idx.S.violations;
        Array.iter
          (fun (nd : S.node) ->
            if nd.S.n_pc >= 0 then addq (Q.P_pc nd.S.n_pc);
            addq (Q.P_tag (S.tag_name st nd.S.n_tag));
            if nd.S.n_kind = S.Seed || nd.S.n_kind = S.Via then
              addq (Q.P_origin nd.S.n_origin);
            if nd.S.n_addr >= 0 then addq (Q.P_addr nd.S.n_addr))
          st.S.nodes
      end)
    stores;
  let cands = List.rev !cands in
  let matching =
    List.filter
      (fun (si, p) ->
        let _, st, idx = stores.(si) in
        Q.start_nodes st idx p <> [])
      cands
  in
  let a = Array.of_list (if matching = [] then cands else matching) in
  let rng = Random.State.make [| seed; 0x9e37 |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 (min n (Array.length a))

let answer_digest (b : Iftgraph.Query.back) =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (string_of_int b.Iftgraph.Query.bk_nodes_visited
          :: List.map
               (fun (s : Iftgraph.Query.source) ->
                 Printf.sprintf "%s@%d/%d" s.Iftgraph.Query.src_origin
                   (Option.value s.Iftgraph.Query.src_addr ~default:(-1))
                   s.Iftgraph.Query.src_tag)
               b.Iftgraph.Query.bk_sources)))

(* A query takes about a microsecond, so one sample is the median of
   [query_slices] timed slices of [query_slice] identical calls each: the
   slices keep the clock's own cost out of the figure, and the median
   keeps a slice that an interrupt or the hypervisor cut into from
   standing in for the query's cost. *)
let query_slices = 5
let query_slice = 50

let run_queries g stores =
  Array.iteri
    (fun qi (si, pred) ->
      let _, st, idx = stores.(si) in
      let b =
        Probe.span "iftgraph.query.sources_of" (fun () ->
            let slice () =
              let t0 = Probe.now_ns () in
              for _ = 1 to query_slice do
                ignore (Sys.opaque_identity (Iftgraph.Query.sources_of st idx pred))
              done;
              float_of_int (Probe.now_ns () - t0) /. 1e3 /. float_of_int query_slice
            in
            add "query_us" (Probe.median (List.init query_slices (fun _ -> slice ())));
            Iftgraph.Query.sources_of st idx pred)
      in
      let d = answer_digest b in
      match Hashtbl.find_opt g.answers qi with
      | None -> Hashtbl.replace g.answers qi d
      | Some d0 ->
          check "query answer" (String.equal d d0) (fun () ->
              Iftgraph.Query.pred_to_string pred ^ " changed between rounds"))
    g.queries

(* --- One round ------------------------------------------------------- *)

type ctx = {
  kind : kind;
  seed : int;
  items : Sim.item array;
  graphs : graphs;
  warm : Difftest.Oracle.warm option;
  store_only : Sim.item list;  (** Traced once, for their graph stores. *)
  asked : string -> bool;  (** Stores the query set is drawn from. *)
}

(* Simulated instructions run in the measured loop (all legs). *)
let loop_instret = ref 0

(* Record a leg's time, and time the calibration kernels right after it
   so the host speed indices follow the host through the whole run. *)
let sample key (it : Sim.item) (r : Sim.run) =
  loop_instret := !loop_instret + r.Sim.stats.Sim.instret;
  add (key ^ ":" ^ it.Sim.name) r.Sim.seconds;
  add "calibration_ms" (Probe.calibrate ());
  add "calibration_mem_ms" (Probe.calibrate_mem ())

let txn_targets = [ "uart"; "sensor"; "can"; "aes"; "dma"; "plic"; "clint" ]

(* The four legs every workload item runs each round — VP, VP+ (ending
   in a state dump), VP+ traced with a graph sink, VP+ checkpointed —
   plus, on instrumented rounds of the traced run, the two ablation legs
   of the layer stack: VP with DMI off, and VP at quantum 10000. *)
let item_legs ctx ~round ~instrumented =
  let totals = Hashtbl.create 8 in
  let tot k v =
    Hashtbl.replace totals k
      (v +. Option.value (Hashtbl.find_opt totals k) ~default:0.)
  in
  let sum = Hashtbl.create 16 in
  let bump k v = Hashtbl.replace sum k (v + Option.value (Hashtbl.find_opt sum k) ~default:0) in
  let n = Array.length ctx.items in
  for j = 0 to n - 1 do
    let it = ctx.items.((j + ctx.seed) mod n) in
    let final = ref "" in
    let base_vp = ref None in
    let vpp () =
      let r, l = Sim.leg Sim.vpp it in
      final := Sim.save l.Sim.soc;
      check_stats ~leg:"vp+" ~tracking:true it r.Sim.stats;
      sample "vpp" it r;
      tot "vpp" r.Sim.seconds;
      if instrumented then begin
        bump "fast" r.Sim.fast_retired;
        bump "vpp_instret" r.Sim.stats.Sim.instret;
        bump "blocks" r.Sim.blocks;
        bump "superblocks" r.Sim.superblocks;
        bump "chain" r.Sim.chain_hits;
        bump "ic_hits" r.Sim.ic_hits;
        bump "ic_misses" r.Sim.ic_misses;
        bump "checks" r.Sim.checks;
        bump "violations" r.Sim.stats.Sim.violations
      end
    in
    let vp () =
      let txns = if instrumented then Some (Hashtbl.create 8) else None in
      let r, _ = Sim.leg ?txns Sim.vp it in
      check_stats ~leg:"vp" ~tracking:false it r.Sim.stats;
      sample "vp" it r;
      tot "vp" r.Sim.seconds;
      base_vp := Some r.Sim.stats;
      Option.iter
        (fun tbl ->
          let all = Hashtbl.fold (fun _ c a -> a + c) tbl 0 in
          bump "txns" all;
          List.iter
            (fun t -> bump ("txns." ^ t) (Option.value (Hashtbl.find_opt tbl t) ~default:0))
            txn_targets;
          bump "instret" r.Sim.stats.Sim.instret;
          bump "deltas" r.Sim.stats.Sim.deltas;
          bump "sim_ns" r.Sim.stats.Sim.sim_ns)
        txns
    in
    if round mod 2 = 0 then (vpp (); vp ()) else (vp (); vpp ());
    let t = Sim.traced_leg it in
    check_stats ~leg:"vp+trace" ~tracking:true it t.Sim.t_run.Sim.stats;
    sample "trace" it t.Sim.t_run;
    tot "trace" t.Sim.t_run.Sim.seconds;
    if round = 0 then write_store ctx.graphs it.Sim.name t.Sim.store;
    if instrumented then begin
      bump "events" t.Sim.events;
      add "graph_finish_ms" t.Sim.finish_ms;
      add "forensics_ms" t.Sim.forensics_ms
    end;
    let c = Sim.checkpointed_leg ~stride:(stride ctx.kind) it in
    check_stats ~leg:"vp+checkpointed" ~tracking:true it c.Sim.c_run.Sim.stats;
    check ("checkpointed = straight final state, " ^ it.Sim.name)
      (String.equal c.Sim.final !final)
      (fun () -> "final Soc.save differs");
    check ("restore+save round trip, " ^ it.Sim.name) c.Sim.resaved_equal
      (fun () -> "re-saved snapshot differs");
    loop_instret := !loop_instret + c.Sim.c_run.Sim.stats.Sim.instret;
    List.iter (add "save_ms") c.Sim.saves_ms;
    List.iter (add "restore_ms") c.Sim.restores_ms;
    if instrumented then begin
      bump "checkpoints" c.Sim.checkpoints;
      bump "snap_bytes" c.Sim.snap_bytes;
      (* Layer-stack ablations. Their simulated statistics are compared
         with the default VP's: a difference marks the rows unresolved. *)
      let ablate key cfg =
        let txns = Hashtbl.create 8 in
        let r, _ = aside (fun () -> Sim.leg ~txns cfg it) in
        loop_instret := !loop_instret + r.Sim.stats.Sim.instret;
        add (key ^ ":" ^ it.Sim.name) r.Sim.seconds;
        tot key r.Sim.seconds;
        bump ("txns_" ^ key) (Hashtbl.fold (fun _ c a -> a + c) txns 0);
        match !base_vp with
        | Some b when not (same_work b r.Sim.stats) ->
            set_count ("changed." ^ key) 1.
        | _ -> ()
      in
      ablate "nodmi" { Sim.vp with Sim.dmi = false };
      ablate "iss" { Sim.vp with Sim.quantum = 10_000 }
    end
  done;
  Hashtbl.iter (fun k v -> add ("round." ^ k) v) totals;
  if instrumented then
    Hashtbl.iter (fun k v -> set_count ("sum." ^ k) (float_of_int v)) sum

(* Digest of the first campaign report: every later one must match it,
   whatever the number of jobs. *)
let report_digest = ref None

let harness_rep ctx ~jobs key =
  let cfg = harness_config ~seed:ctx.seed ~jobs in
  (* A campaign starts from a collected heap, as in a fresh process: the
     garbage the previous legs left is not the campaign's to collect. *)
  Gc.full_major ();
  let w0 = Probe.now_ns () and c0 = Probe.cpu_ns () in
  let r =
    Probe.span "difftest.harness.run" (fun () ->
        Difftest.Harness.run ~config:cfg ())
  in
  let wall = Probe.now_ns () - w0 and cpu = Probe.cpu_ns () - c0 in
  check "campaign report healthy" (Difftest.Harness.healthy r) (fun () ->
      Format.asprintf "%a" Difftest.Harness.pp_report r);
  let d = Digest.to_hex (Digest.string (Format.asprintf "%a" Difftest.Harness.pp_report r)) in
  (match !report_digest with
  | None -> report_digest := Some d
  | Some d0 ->
      check "campaign report digest" (String.equal d d0) (fun () ->
          Printf.sprintf "jobs=%d report digest %s, first %s" jobs d d0));
  add (key ^ ".wall_s") (float_of_int wall /. 1e9);
  add (key ^ ".cpu_s") (float_of_int cpu /. 1e9);
  for _ = 1 to 8 do
    add "calibration_parallel_ms" (Probe.calibrate_parallel jobs)
  done

(* The sequential oracle pass of the traced campaign run: the harness's
   own three legs, timed per program. *)
let oracle_pass ctx =
  Array.iter
    (fun (it : Sim.item) ->
      let img = it.Sim.image in
      let time name f =
        let t0 = Probe.now_ns () in
        let v = Probe.span name f in
        add name (ms_of_ns (Probe.now_ns () - t0));
        v
      in
      let g = time "difftest.oracle.run_golden" (fun () -> Difftest.Oracle.run_golden img) in
      let v, _ =
        time "difftest.oracle.run_vp" (fun () ->
            Difftest.Oracle.run_vp ~tracking:false ?warm:ctx.warm img)
      in
      let p, _ =
        time "difftest.oracle.run_vpp" (fun () ->
            Difftest.Oracle.run_vp ~tracking:true ~policy:it.Sim.policy img)
      in
      check ("oracle agreement " ^ it.Sim.name)
        (Difftest.Oracle.agree g v && Difftest.Oracle.agree v p)
        (fun () ->
          Option.value (Difftest.Oracle.explain g v) ~default:""
          ^ Option.value (Difftest.Oracle.explain v p) ~default:""))
    ctx.items

let trap_attacks ctx ~round =
  List.iter
    (fun sc ->
      let name = Firmware.Trap_attacks.name sc in
      let img = Firmware.Trap_attacks.image sc in
      let policy = Firmware.Trap_attacks.policy sc img in
      let tracer = Trace.Tracer.create policy.Dift.Policy.lattice in
      let sink = Trace.Graph.attach ~context:("perfbench " ^ name) tracer in
      let outcome =
        Probe.span "firmware.trap_attacks.run" (fun () ->
            Firmware.Trap_attacks.run ~tracer sc)
      in
      check ("trap attack detected on VP+: " ^ name)
        (outcome = Firmware.Trap_attacks.Detected)
        (fun () -> "attack missed");
      let landed =
        Probe.span "firmware.trap_attacks.run" (fun () ->
            Firmware.Trap_attacks.run ~tracking:false sc)
      in
      check ("trap attack lands on VP: " ^ name)
        (landed = Firmware.Trap_attacks.Missed Firmware.Trap_attacks.exit_code)
        (fun () -> "attack did not land untracked");
      let store = Probe.span "trace.graph.finish" (fun () -> Trace.Graph.finish sink) in
      Trace.Graph.detach sink;
      if round = 0 then write_store ctx.graphs name store)
    Firmware.Trap_attacks.scenarios

(* One round of the workload. [record] is false on the warm-up round;
   [instrumented] turns on spans, bus observers and the ablation legs.
   Returns the wall and CPU time of the part every round shares. *)
let round ctx ~round:r ~record ~instrumented =
  Probe.rep := r;
  Probe.enabled := instrumented;
  recording := record;
  aside_ns := 0;
  aside_cpu_ns := 0;
  let w0 = Probe.now_ns () and c0 = Probe.cpu_ns () in
  if ctx.kind = Campaign then
    for _ = 1 to harness_reps do harness_rep ctx ~jobs "harness" done;
  Probe.Gc_probe.poll ();
  if instrumented && ctx.kind = Campaign then
    aside (fun () ->
        harness_rep ctx ~jobs:1 "harness1";
        oracle_pass ctx);
  item_legs ctx ~round:r ~instrumented;
  if ctx.kind = Forensics || (ctx.kind = Campaign && r = 0) then
    trap_attacks ctx ~round:r;
  if r = 0 then
    List.iter
      (fun (it : Sim.item) ->
        write_store ctx.graphs it.Sim.name (Sim.traced_leg it).Sim.store)
      ctx.store_only;
  (* Ingest from a collected heap: the garbage the legs left is not
     the analyzer's to collect. *)
  Gc.full_major ();
  let stores, ingest_ms = ingest ctx.graphs in
  if r = 0 then begin
    ctx.graphs.queries <- query_set ~seed:ctx.seed ~asked:ctx.asked stores 1024;
    pf "query set: %d predicates over %d stores (%d with nodes)\n"
      (Array.length ctx.graphs.queries) (Array.length stores)
      (Array.fold_left
         (fun a (_, st, _) -> if Array.length st.Iftgraph.Store.nodes > 0 then a + 1 else a)
         0 stores)
  end;
  let passes = max 1 ((24 + Array.length ctx.graphs.queries - 1) / max 1 (Array.length ctx.graphs.queries)) in
  (* One untimed pass first: the item legs have just evicted the freshly
     ingested stores from the caches, and a cold first pass would put
     cache misses rather than query work in the upper percentiles. *)
  Array.iter
    (fun (si, pred) ->
      let _, st, idx = stores.(si) in
      ignore (Iftgraph.Query.sources_of st idx pred))
    ctx.graphs.queries;
  (* The same for the timed queries: a sub-microsecond query otherwise
     times the major-GC slices that the legs' and the ingest's garbage
     makes its small allocations trigger. *)
  Gc.full_major ();
  for _ = 1 to passes do run_queries ctx.graphs stores done;
  add "ingest_ms" ingest_ms;
  Probe.enabled := false;
  (Probe.now_ns () - w0 - !aside_ns, Probe.cpu_ns () - c0 - !aside_cpu_ns)

(* --- Set-up ---------------------------------------------------------- *)

let make_items kind ~seed =
  match kind with
  | Compute -> firmware kind compute_fw
  | Platform -> firmware kind platform_fw
  | Forensics -> firmware kind [ "immo-fixed" ]
  | Campaign -> gen_programs ~seed:(campaign_seed seed) ~total:campaign_leg_programs

(* Set-up as every run pays it: image assembly, then Soc.create,
   load_image and start for each flavour (and the tracer + graph sink
   for the forensics run); for the campaign, Oracle.warm_boot. Timed on
   process CPU (set-up runs on one domain), in seconds. *)
let setup_once kind ~seed =
  let t0 = Probe.cpu_ns () in
  (match kind with
  | Campaign ->
      ignore (Probe.span "difftest.oracle.warm_boot" Difftest.Oracle.warm_boot)
  | _ ->
      let items = make_items kind ~seed in
      List.iter
        (fun it ->
          ignore (Sim.boot Sim.vp it);
          ignore (Sim.boot Sim.vpp it);
          if kind = Forensics then begin
            let tracer = Trace.Tracer.create it.Sim.policy.Dift.Policy.lattice in
            ignore
              (Sim.boot ~tracer
                 ~before_load:(fun _ -> ignore (Trace.Graph.attach tracer))
                 Sim.vpp it);
            List.iter
              (fun sc -> ignore (Firmware.Trap_attacks.image sc))
              Firmware.Trap_attacks.scenarios
          end)
        items);
  float_of_int (Probe.cpu_ns () - t0) /. 1e9

(* Set-up is repeated after the warm-up round, when the process is in the
   same state as in the measured loop, each repetition followed by a run
   of the calibration kernel: setup_s is the median repetition scaled by
   the median of those kernel runs, taken next to it, so a host phase
   that differs between set-up and loop does not leak into either. At
   least [setup_reps] repetitions, and more until [setup_min_s] of set-up
   has been timed. *)
let setup_reps = 21
let setup_min_s = 1.0

let measure_setup kind ~seed =
  let times = ref [] and cals = ref [] and total = ref 0. in
  while List.length !times < setup_reps || (!total < setup_min_s && List.length !times < 400) do
    Gc.full_major ();
    let t = setup_once kind ~seed in
    times := t :: !times;
    total := !total +. t;
    cals := Probe.calibrate () :: !cals
  done;
  (Probe.median !times, Probe.median !cals, List.length !times)

(* --- Metrics --------------------------------------------------------- *)

let sum_med prefix (items : Sim.item array) =
  Array.fold_left (fun a (it : Sim.item) -> a +. med (prefix ^ ":" ^ it.Sim.name)) 0. items

let total_instret (items : Sim.item array) =
  Array.fold_left
    (fun a (it : Sim.item) ->
      match Reference.find it.Sim.name with
      | Some s -> a + s.Sim.instret
      | None -> (
          match Hashtbl.find_opt expected it.Sim.name with
          | Some s -> a + s.Sim.instret
          | None -> a))
    0 items

let round_wall_s = ref []
let round_cpu_s = ref []

let end_to_end ctx ~setup =
  let items = ctx.items in
  let setup_s, setup_cal, _ = setup in
  let instr = float_of_int (total_instret items) in
  let vp_s = sum_med "vp" items and vpp_s = sum_med "vpp" items in
  let tr_s = sum_med "trace" items in
  let n = float_of_int (Array.length items) in
  (* Host-time figures are scaled to the reference host's speed: rates
     up and times down by the host speed index (1 on the reference host,
     2 on a host half as fast). Ratios and memory are left as measured. *)
  let index = med "calibration_ms" /. Probe.calibration_ref_ms in
  let rate v = v *. index and time v = v /. index in
  (* Snapshot, ingest and query times are bound by memory latency, and
     are scaled by the latency kernel's index instead. *)
  let mem_index = med "calibration_mem_ms" /. Probe.calibration_mem_ref_ms in
  let mtime v = v /. mem_index in
  (* The campaign's wall-clock throughput runs on every vCPU: it is
     scaled by the kernel's speed on all of them at once. *)
  let parallel_rate v =
    v *. med "calibration_parallel_ms" /. Probe.calibration_parallel_ref_ms
  in
  let programs_per_s, cpu_ms =
    match ctx.kind with
    | Campaign ->
        ( parallel_rate (float_of_int campaign_programs /. med "harness.wall_s"),
          time (med "harness.cpu_s" *. 1e3 /. float_of_int campaign_programs) )
    | _ ->
        ( rate (n /. Probe.median !round_wall_s),
          time (Probe.median !round_cpu_s *. 1e3 /. n) )
  in
  let q = get "query_us" in
  pf "unscaled: vp_mips %.4f, vpp_mips %.4f (host speed index %.3f)\n"
    (instr /. vp_s /. 1e6) (instr /. vpp_s /. 1e6) index;
  [
    ("setup_s", setup_s /. (setup_cal /. Probe.calibration_ref_ms), "s");
    ("vp_mips", rate (instr /. vp_s /. 1e6), "MIPS");
    ("vpp_mips", rate (instr /. vpp_s /. 1e6), "MIPS");
    ("dift_overhead", vpp_s /. vp_s, "ratio");
    ("programs_per_s", programs_per_s, "1/s");
    ("cpu_ms_per_program", cpu_ms, "ms");
    ("tracer_overhead", tr_s /. vpp_s, "ratio");
    ("checkpoint_save_ms", mtime (med "save_ms"), "ms");
    ("checkpoint_restore_ms", mtime (med "restore_ms"), "ms");
    ("analyze_ingest_ms", mtime (med "ingest_ms"), "ms");
    ("query_p50_us", mtime (Probe.quantile q 0.5), "us");
    ("query_p90_us", mtime (Probe.quantile q 0.9), "us");
    ("peak_rss_mb",
      (match get "round_rss_mb" with [] -> Probe.peak_rss_mb () | xs -> Probe.median xs),
      "MB");
  ]

(* Layer stack of the traced run: each row is the difference between two
   configurations' per-round totals. A row is unresolved when that
   difference is within the two configurations' spread (sum of their
   inter-quartile ranges), or when the ablation changed a simulated
   statistic. *)
let layer_rows () =
  let iqr k =
    let xs = get ("round." ^ k) in
    Probe.quantile xs 0.75 -. Probe.quantile xs 0.25
  in
  let m k = med ("round." ^ k) in
  let row name hi lo =
    let d = m hi -. (if lo = "" then 0. else m lo) in
    let noise = iqr hi +. if lo = "" then 0. else iqr lo in
    let changed = count ("changed." ^ hi) > 0. || count ("changed." ^ lo) > 0. in
    let verdict =
      if changed then "unresolved: ablation changed simulated statistics"
      else if Float.abs d <= noise then "unresolved: within spread"
      else "resolved"
    in
    (name, d, noise, verdict)
  in
  [
    row "rv32 ISS (VP, DMI, quantum 10000)" "iss" "";
    row "+sysc quantum sync (quantum 1000)" "vp" "iss";
    row "+tlm routing (DMI off)" "nodmi" "vp";
    row "+dift tag work (VP+)" "vpp" "vp";
    row "+trace (tracer + graph sink)" "trace" "vpp";
  ]

let per_layer ctx ~gc0 ~gc1 ~lub_ns ~overhead =
  let items = ctx.items in
  let c k = count ("sum." ^ k) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let kinstr = c "instret" /. 1e3 in
  let m k = med ("round." ^ k) in
  let spans_med name = Probe.median (Probe.durations_ms name) in
  let camp = ctx.kind = Campaign in
  let speedup = if camp then med "harness1.wall_s" /. med "harness.wall_s" else 0. in
  let fw =
    List.concat_map
      (fun name ->
        match
          Array.find_opt (fun (it : Sim.item) -> it.Sim.name = name) items
        with
        | Some it ->
            let i = float_of_int (total_instret [| it |]) in
            [ ("fw." ^ name ^ ".vp_mips", i /. med ("vp:" ^ name) /. 1e6, "MIPS");
              ("fw." ^ name ^ ".vpp_mips", i /. med ("vpp:" ^ name) /. 1e6, "MIPS") ]
        | None ->
            [ ("fw." ^ name ^ ".vp_mips", 0., "MIPS");
              ("fw." ^ name ^ ".vpp_mips", 0., "MIPS") ])
      (compute_fw @ platform_fw)
  in
  let txns_extra = c "txns_nodmi" -. c "txns" in
  [
    ("rv32.instret", c "instret", "count");
    ("rv32.fast_retired_ratio", ratio (c "fast") (c "vpp_instret"), "ratio");
    ("rv32.blocks_built", c "blocks", "count");
    ("rv32.superblocks_built", c "superblocks", "count");
    ("rv32.chain_hits_per_kinstr", ratio (c "chain") (c "vpp_instret" /. 1e3), "count/kinstr");
    ("rv32.ic_hit_ratio", ratio (c "ic_hits") (c "ic_hits" +. c "ic_misses"), "ratio");
    ("rv32.iss_s", m "iss", "s");
    ("dift.self_s", m "vpp" -. m "vp", "s");
    ("dift.checks", c "checks", "count");
    ("dift.violations", c "violations", "count");
    ("dift.lub_ns", lub_ns, "ns");
    ("tlm.txns", c "txns", "count");
    ("tlm.txns_per_kinstr", ratio (c "txns") kinstr, "count/kinstr");
    ("tlm.route_ns_per_txn", ratio ((m "nodmi" -. m "vp") *. 1e9) txns_extra, "ns");
    ("sysc.deltas", c "deltas", "count");
    ("sysc.sim_ns", c "sim_ns", "ns");
    ("sysc.deltas_per_kinstr", ratio (c "deltas") kinstr, "count/kinstr");
    ("sysc.sync_s", m "vp" -. m "iss", "s");
    ("vp.create_ms", spans_med "vp.soc.create", "ms");
    ("vp.load_image_ms", spans_med "vp.soc.load_image", "ms");
    ("rv32_asm.assemble_ms", spans_med "rv32_asm.assemble", "ms");
  ]
  @ List.map (fun t -> ("vp." ^ t ^ "_txns", c ("txns." ^ t), "count")) txn_targets
  @ [
      ("difftest.gen_ms", (if camp then spans_med "difftest.gen" else 0.), "ms");
      ("difftest.golden_ms", (if camp then med "difftest.oracle.run_golden" else 0.), "ms");
      ("difftest.vp_ms", (if camp then med "difftest.oracle.run_vp" else 0.), "ms");
      ("difftest.vpp_ms", (if camp then med "difftest.oracle.run_vpp" else 0.), "ms");
      ("difftest.warm_boot_ms", (if camp then spans_med "difftest.oracle.warm_boot" else 0.), "ms");
      ("parallelkit.speedup", speedup, "ratio");
      ("parallelkit.cpu_per_wall",
        (if camp then Probe.median (List.map2 ( /. ) (get "harness.cpu_s") (get "harness.wall_s")) else 0.),
        "ratio");
      ("parallelkit.efficiency", speedup /. float_of_int jobs, "ratio");
      ("gc.minor_words_per_kinstr",
        ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) (float_of_int !loop_instret /. 1e3),
        "words/kinstr");
      ("gc.minor_collections", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections), "count");
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections), "count");
      ("gc.pause_s", Probe.Gc_probe.pause_s (), "s");
      ("gc.top_heap_mb", float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576., "MB");
      ("trace.events_recorded", c "events", "count");
      ("trace.self_s", m "trace" -. m "vpp", "s");
      ("trace.graph_finish_ms", med "graph_finish_ms", "ms");
      ("trace.forensics_ms", med "forensics_ms", "ms");
      ("snapshot.bytes", ratio (c "snap_bytes") (float_of_int (Array.length items)), "bytes");
      ("snapshot.checkpoints", c "checkpoints", "count");
      ("iftgraph.store_bytes", count "iftgraph.store_bytes", "bytes");
      ("iftgraph.nodes", count "iftgraph.nodes", "count");
      ("iftgraph.edges", count "iftgraph.edges", "count");
      ("iftgraph.store_write_ms", med "store_write_ms", "ms");
      ("perfbench.calibration_ms", med "calibration_ms", "ms");
    ]
  @ fw
  @ [ ("perfbench.trace_overhead", overhead, "ratio") ]

(* Dift.Lattice.lub on the workload's lattice, ns per join. *)
let lub_bench (it : Sim.item) =
  let lat = it.Sim.policy.Dift.Policy.lattice in
  let n = Dift.Lattice.size lat in
  let iters = 2_000_000 in
  Probe.span "dift.lattice.lub" (fun () ->
      let t0 = Probe.now_ns () in
      let acc = ref 0 in
      for i = 0 to iters - 1 do
        acc := !acc + Dift.Lattice.lub lat (i mod n) (i * 7 mod n)
      done;
      ignore (Sys.opaque_identity !acc);
      float_of_int (Probe.now_ns () - t0) /. float_of_int iters)

(* --- Report ---------------------------------------------------------- *)

let print_items ctx =
  pf "%-16s %10s %9s %9s %8s %8s %6s %6s\n" "item" "instret" "VP [ms]"
    "VP+ [ms]" "VP MIPS" "VP+ MIPS" "Ov." "trace";
  Array.iter
    (fun (it : Sim.item) ->
      let i = float_of_int (total_instret [| it |]) in
      let v = med ("vp:" ^ it.Sim.name) and p = med ("vpp:" ^ it.Sim.name) in
      let t = med ("trace:" ^ it.Sim.name) in
      pf "%-16s %10.0f %9.3f %9.3f %8.1f %8.1f %5.2fx %5.2fx\n" it.Sim.name i
        (v *. 1e3) (p *. 1e3) (i /. v /. 1e6) (i /. p /. 1e6) (p /. v) (t /. p))
    ctx.items

let json_line ~correct metrics =
  let module J = Jsonkit.Json in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool correct);
         ("attempted", J.num_of_int !attempted);
         ("failed", J.num_of_int !failed);
         ("metrics",
           J.Obj
             (List.map
                (fun (k, v, u) ->
                  let v = if Float.is_finite v then v else 0. in
                  (k, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
                metrics)) ])

(* --- Main ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload compute|platform|campaign|forensics --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (opt k) with Some v -> v | None -> usage () in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ())
    opts;
  let kind = match List.assoc_opt (opt "workload") kinds with Some k -> k | None -> usage () in
  let seed = abs (int "seed") in
  let seconds =
    match float_of_string_opt (opt "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let traced = match opt "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let name = opt "workload" in
  let out = Filename.concat "perfbench" "_out" in
  let dir = Filename.concat out name in
  mkdir_p dir;
  Array.iter
    (fun f -> if Filename.check_suffix f Iftgraph.Analyze.store_ext then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  if traced then Probe.Gc_probe.start ();
  (* Spans on in the traced run, so program generation is attributed. *)
  Probe.enabled := traced;
  let items = make_items kind ~seed in
  let warm =
    if kind = Campaign then Some (Difftest.Oracle.warm_boot ()) else None
  in
  Probe.enabled := false;
  let ctx =
    {
      kind;
      seed;
      items = Array.of_list items;
      graphs = { dir; files = []; queries = [||]; answers = Hashtbl.create 64 };
      warm;
      store_only =
        (if kind = Campaign then
           firmware kind [ "immo-fixed" ]
           @ List.filteri
               (fun i _ -> i >= campaign_leg_programs)
               (gen_programs ~seed:(campaign_seed seed) ~total:campaign_store_programs)
         else []);
      (* The campaign's own graphs are too small for a latency
         percentile: most of their predicates are one-node lookups, and
         whether the 90th percentile lands among those or among real
         backward walks depends on which programs the seed drew (8 % to
         20 % walks). Its queries ask the forensics workload's graphs
         instead (immo-fixed and the trap attacks, traced once in the
         warm-up round); its own stores are still ingested with them. *)
      asked =
        (if kind = Campaign then fun n ->
           n = "immo-fixed"
           || List.exists
                (fun sc -> String.equal n (Firmware.Trap_attacks.name sc))
                Firmware.Trap_attacks.scenarios
         else fun _ -> true);
    }
  in
  pf "perfbench %s: seed %d, %g s, %s run, %d item(s), jobs %d\n%!" name seed
    seconds (if traced then "traced" else "untraced") (Array.length ctx.items) jobs;
  (* Warm-up round: fills expectations and graph stores, not recorded. *)
  ignore (round ctx ~round:0 ~record:false ~instrumented:false);
  (* Set-up, timed with spans on in the traced run so its pieces are
     attributed too. *)
  Probe.enabled := traced;
  let setup = measure_setup kind ~seed in
  Probe.enabled := false;
  loop_instret := 0;
  let gc0 = Gc.quick_stat () in
  let plain = ref [] and instr = ref [] in
  let deadline = Probe.now_ns () + int_of_float (seconds *. 1e9) in
  let r = ref 1 in
  while Probe.now_ns () < deadline || !r <= (if traced then 2 else 1) do
    (* Traced run: alternate plain and instrumented rounds, so the
       instrumentation's own cost is measured against identical work. *)
    let instrumented = traced && !r mod 2 = 0 in
    (* The peak resident set is taken per round and reported as the
       median: a process-wide peak is the largest of many GC-paced
       backlogs, and grows with the number of rounds run. *)
    let per_round_rss = (not instrumented) && Probe.reset_peak_rss () in
    let w, c = round ctx ~round:!r ~record:true ~instrumented in
    if per_round_rss then add "round_rss_mb" (Probe.peak_rss_mb ());
    let ws = float_of_int w /. 1e9 in
    if instrumented then instr := ws :: !instr
    else begin
      plain := ws :: !plain;
      round_wall_s := ws :: !round_wall_s;
      round_cpu_s := (float_of_int c /. 1e9) :: !round_cpu_s
    end;
    if traced then Probe.Gc_probe.poll ();
    incr r
  done;
  let gc1 = Gc.quick_stat () in
  (* Every p90 query figure rests on at least ten samples beyond it. *)
  let stores, _ = ingest ctx.graphs in
  while List.length (get "query_us") < 110 do run_queries ctx.graphs stores done;
  let rounds = !r - 1 in
  let setup_raw, setup_cal, setup_n = setup in
  pf "%d measured round(s); calibration kernel %.3f ms (host speed index %.3f), latency kernel %.3f ms (index %.3f)%s\n"
    rounds (med "calibration_ms") (med "calibration_ms" /. Probe.calibration_ref_ms)
    (med "calibration_mem_ms") (med "calibration_mem_ms" /. Probe.calibration_mem_ref_ms)
    (if kind = Campaign then
       Printf.sprintf ", on %d domains %.3f ms" jobs (med "calibration_parallel_ms")
     else "");
  pf "set-up: %d repetitions, median %.4f s raw; kernel next to it %.3f ms\n\n"
    setup_n setup_raw setup_cal;
  print_items ctx;
  let correct = !failed = 0 in
  let metrics =
    if not traced then end_to_end ctx ~setup
    else begin
      let lub_ns = lub_bench ctx.items.(0) in
      Probe.Gc_probe.poll ();
      let overhead = Probe.median !instr /. Probe.median !plain in
      let spans_file = Filename.concat out (name ^ ".spans.jsonl") in
      Probe.write_spans spans_file;
      pf "\nlayer stack (per-round totals, median; unresolved = within spread or ablation changed simulated statistics):\n";
      List.iter
        (fun (n, d, noise, verdict) ->
          pf "  %-36s %10.4f s  (spread %.4f s)  %s\n" n d noise verdict)
        (layer_rows ());
      let rows = layer_rows () in
      let _, sync, sync_n, sync_v = List.nth rows 1 and _, tlm, tlm_n, tlm_v = List.nth rows 2 in
      let _, iss, iss_n, iss_v = List.nth rows 0 in
      let platform = sync +. tlm in
      pf "  sysc+tlm+vp = %.4f s vs rv32.iss_s = %.4f s: %s\n" platform iss
        (if List.exists (fun v -> v <> "resolved") [ sync_v; tlm_v; iss_v ]
            || Float.abs (platform -. iss) <= sync_n +. tlm_n +. iss_n
         then "unresolved"
         else if platform > iss then "platform layers outweigh the ISS"
         else "the ISS outweighs the platform layers");
      pf "\nspan self time (top 12; %d spans in %s):\n" !Probe.count spans_file;
      List.iteri
        (fun i (n, calls, s) -> if i < 12 then pf "  %-32s %7d calls %9.4f s\n" n calls s)
        (Probe.self_by_name ());
      pf "instrumented rounds vs plain rounds: %.3fx (%d vs %d rounds); GC events lost: %d\n"
        overhead (List.length !instr) (List.length !plain) !Probe.Gc_probe.lost;
      per_layer ctx ~gc0 ~gc1 ~lub_ns ~overhead
    end
  in
  pf "\n";
  List.iter (fun (k, v, u) -> pf "%-28s %14.4f %s\n" k v u) metrics;
  pf "fail_ratio %d/%d\n" !failed !attempted;

  print_endline (json_line ~correct metrics)
