(* Measurement plumbing shared by every workload: sample statistics, the
   span recorder of the traced run, and the process-level GC / memory
   probes. Nothing here calls into the simulator. *)

let now_ns = Benchkit.Clock.now_ns
let cpu_ns = Benchkit.Clock.cpu_ns

(* --- Sample statistics --------------------------------------------- *)

(* Quantiles with the same "exclusive" method as Python's
   statistics.quantiles, so the figures printed here match what a
   reader recomputes from the raw samples. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let h = p *. float_of_int (n + 1) in
  if n = 0 then 0.
  else if h <= 1. then a.(0)
  else if h >= float_of_int n then a.(n - 1)
  else
    let lo = int_of_float h in
    a.(lo - 1) +. ((h -. float_of_int lo) *. (a.(lo) -. a.(lo - 1)))

let median xs = quantile xs 0.5

(* --- Spans ----------------------------------------------------------- *)

(* A span brackets one call from the benchmark into a library's public
   function. Spans live in memory (a growable array) and are written out
   once, at the end of the run; [parent] is the enclosing span's id (-1 at
   top level) and [rep] the workload round the call belongs to. Recording
   is off in untraced runs, where [span] is a plain call. Spans are taken
   on the main domain only: a call that fans out to worker domains is one
   span. *)
type span = {
  name : string;
  start_ns : int;
  mutable end_ns : int;
  parent : int;
  rep : int;
}

let enabled = ref false
let rep = ref 0
let spans : span array ref = ref [||]
let count = ref 0
let stack = ref []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = push { name; start_ns = now_ns (); end_ns = 0; parent; rep = !rep } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        !spans.(id).end_ns <- now_ns ();
        stack := List.tl !stack)
      f
  end

let all_spans () = Array.sub !spans 0 !count

(* Self time: a span's duration minus the time its direct children
   cover. Children never overlap (one domain, properly nested calls). *)
let self_ns sp =
  let self = Array.map (fun s -> s.end_ns - s.start_ns) sp in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        self.(s.parent) <- self.(s.parent) - (s.end_ns - s.start_ns))
    sp;
  self

(* Durations (ms) of every span with this name. *)
let durations_ms name =
  Array.fold_left
    (fun acc s ->
      if s.name = name then float_of_int (s.end_ns - s.start_ns) /. 1e6 :: acc
      else acc)
    [] (all_spans ())

let write_spans path =
  let sp = all_spans () in
  let self = self_ns sp in
  let b = Buffer.create (64 * (Array.length sp + 1)) in
  Array.iteri
    (fun i s ->
      Buffer.add_string b
        (Jsonkit.Json.to_string
           (Jsonkit.Json.Obj
              [ ("id", Jsonkit.Json.num_of_int i);
                ("name", Jsonkit.Json.Str s.name);
                ("start_ns", Jsonkit.Json.num_of_int s.start_ns);
                ("end_ns", Jsonkit.Json.num_of_int s.end_ns);
                ("self_ns", Jsonkit.Json.num_of_int self.(i));
                ("parent", Jsonkit.Json.num_of_int s.parent);
                ("rep", Jsonkit.Json.num_of_int s.rep) ]));
      Buffer.add_char b '\n')
    sp;
  Snapshot.Io.write_file_atomic path (Buffer.contents b)

(* Self time summed per span name, largest first: (name, calls, self s). *)
let self_by_name () =
  let sp = all_spans () in
  let self = self_ns sp in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let n, t = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0) in
      Hashtbl.replace tbl s.name (n + 1, t + self.(i)))
    sp;
  Hashtbl.fold (fun k (n, t) acc -> (k, n, float_of_int t /. 1e9) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

(* --- GC -------------------------------------------------------------- *)

(* GC pause time from the runtime's own event rings (Runtime_events ships
   with the compiler): per ring (one per domain), the time between
   entering a top-level runtime phase and leaving it, summed over rings.
   Only the traced run starts the rings; they are read after every leg,
   and events overwritten before they were read are counted in [lost]. *)
module Gc_probe = struct
  let cursor = ref None
  let depth : (int, int * int64) Hashtbl.t = Hashtbl.create 8
  let pause_ns = ref 0L
  let lost = ref 0

  let callbacks =
    (* A domain blocked on a condition variable is idle, not collecting:
       those phases are not pauses. *)
    let idle = function
      | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> true
      | _ -> false
    in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts ph ->
        if not (idle ph) then
        let d, t0 =
          Option.value (Hashtbl.find_opt depth ring) ~default:(0, 0L)
        in
        let t0 = if d = 0 then Runtime_events.Timestamp.to_int64 ts else t0 in
        Hashtbl.replace depth ring (d + 1, t0))
      ~runtime_end:(fun ring ts ph ->
        if not (idle ph) then
        match Hashtbl.find_opt depth ring with
        | Some (1, t0) ->
            Hashtbl.replace depth ring (0, 0L);
            pause_ns :=
              Int64.add !pause_ns
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
        | Some (d, t0) when d > 1 -> Hashtbl.replace depth ring (d - 1, t0)
        | _ -> ())
      ~lost_events:(fun ring n ->
        (* The open phase's end may be among the lost events: drop it
           rather than charge the gap as a pause. *)
        Hashtbl.remove depth ring;
        lost := !lost + n)
      ~lifecycle:(fun ring _ _ _ -> Hashtbl.remove depth ring)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  let pause_s () = Int64.to_float !pause_ns /. 1e9
end

(* Peak resident set size of the process, from /proc (Linux). Falls back
   to the GC's peak major heap where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                    Some (float_of_int kb /. 1024.))
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* Start a new peak: Linux resets the process's VmHWM to its current
   resident set when "5" is written to its own clear_refs. Returns false
   where that is not possible, and the peak then stays process-wide. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        Out_channel.output_string oc "5");
    true
  with Sys_error _ -> false

(* --- Host speed ------------------------------------------------------ *)

(* The benchmark runs on shared virtual machines whose speed drifts in
   phases lasting tens of seconds to minutes (the whole guest slows by up
   to 1.6x, as when a neighbour loads the physical core). Every leg is
   therefore followed by a run of this fixed kernel, which shares no code
   with the simulator: a small register-machine interpreter — byte-coded
   dispatch, loads and stores over a 64 KiB memory — the same kinds of
   work as the ISS. Its time against the reference host's is the host
   speed index the host-time metrics are scaled by. The kernel allocates
   nothing and writes only immediate integers, so no GC work a leg leaves
   behind (minor collections, major slices, remembered-set entries) can
   be charged to it: the index depends on the host, not on the program
   it corrects. *)
let calibration_steps = 500_000

(* The kernel's CPU time right after a leg, and its wall time on every
   vCPU at once, on the reference host (an Intel Xeon KVM guest with 2
   vCPUs) at its usual speed: the index is 1 there, and the scaled
   figures read as measured. *)
let calibration_ref_ms = 2.54
let calibration_parallel_ref_ms = 2.35

let calibration_program =
  let s = ref 0x2545F491 in
  Array.init 256 (fun _ ->
      s := (!s * 1103515245 + 12345) land 0x3fff_ffff;
      (!s lsr 16) land 7)

let kernel mem (keep : int array) =
  let regs = Array.make 8 1 in
  let prog = calibration_program in
  let pc = ref 0 in
  for step = 0 to calibration_steps - 1 do
    let op = Array.unsafe_get prog !pc in
    let a = step land 7 and b = (step lsr 3) land 7 in
    (match op with
    | 0 -> regs.(a) <- (regs.(a) + regs.(b)) land 0xffff_ffff
    | 1 -> regs.(a) <- Bytes.get_uint16_le mem ((regs.(b) * 2) land 0xfffe)
    | 2 -> Bytes.set_uint16_le mem ((regs.(a) * 2) land 0xfffe) (regs.(b) land 0xffff)
    | 3 -> if regs.(a) land 1 = 0 then pc := (!pc + 3) land 255
    | 4 -> regs.(a) <- regs.(a) lxor (regs.(b) lsl 3)
    | 5 -> if step land 7 = 0 then keep.(step land 63) <- regs.(a) + step
    | 6 -> regs.(a) <- regs.(a) * 3 + 1
    | _ -> regs.(a) <- regs.(a) lsr 1);
    pc := (!pc + 1) land 255
  done;
  ignore (Sys.opaque_identity (regs, keep))

let memory () = (Bytes.make 65536 '\001', Array.make 64 0)
let calibration_memory = memory ()

(* A second kernel for the metrics that are bound by memory latency
   rather than by dispatch (checkpoint save and restore, store ingest,
   graph queries): a chain of dependent loads around a random cycle over
   256 KiB, like a walk through a hash table or a graph. The two kinds of
   work do not slow together: when a neighbour shares the physical core,
   the dispatch kernel slows by a third and the latency-bound metrics
   barely move, so scaling those by the dispatch kernel over-corrects. It
   allocates nothing either. *)
let chase_steps = 400_000

(* Its CPU time on the reference host. *)
let calibration_mem_ref_ms = 2.6

let chase_table =
  (* Sattolo's shuffle: one cycle through every slot. *)
  let n = 1 lsl 15 in
  let a = Array.init n (fun i -> i) in
  let s = ref 0x1B873593 in
  for i = n - 1 downto 1 do
    s := (!s * 1103515245 + 12345) land 0x3fff_ffff;
    let j = (!s lsr 8) mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One run of the latency kernel, CPU time in ms. One untimed lap first
   brings the table back into the caches the leg before it evicted it
   from, so the time does not depend on what that leg touched. *)
let calibrate_mem () =
  let t = chase_table in
  let i = ref 0 in
  for _ = 1 to Array.length t do
    i := Array.unsafe_get t !i
  done;
  let t0 = cpu_ns () in
  for _ = 1 to chase_steps do
    i := Array.unsafe_get t !i
  done;
  ignore (Sys.opaque_identity !i);
  float_of_int (cpu_ns () - t0) /. 1e6

(* One kernel run on the calling domain, CPU time in ms. *)
let calibrate () =
  let mem, keep = calibration_memory in
  let t0 = cpu_ns () in
  kernel mem keep;
  float_of_int (cpu_ns () - t0) /. 1e6

(* The kernel on [jobs] domains at once, wall time in ms: how fast the
   host's vCPUs run together, which is what a parallel campaign's wall
   time depends on. Each domain has its own memory. *)
let calibrate_parallel jobs =
  let mems = List.init jobs (fun _ -> memory ()) in
  let t0 = now_ns () in
  let others =
    List.map (fun (m, k) -> Domain.spawn (fun () -> kernel m k)) (List.tl mems)
  in
  kernel (fst (List.hd mems)) (snd (List.hd mems));
  List.iter Domain.join others;
  float_of_int (now_ns () - t0) /. 1e6
