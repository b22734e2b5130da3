(* Reference simulated statistics of the Table II firmwares at the
   scale each workload runs them (see [scale_of] in main.ml), on the default superblock engine, quantum
   1000, DMI on. VP and VP+ must both reproduce them (the VP's violation
   count is 0 by construction: it checks nothing). A change that only
   makes the simulator faster leaves every row identical; a change that
   alters what the simulator computes fails here and shows in the run's
   [failed] count. Every Table II firmware exits 0 with no violation; the
   output digest covers the UART bytes and CAN frames (d41d8cd98f00 is the
   empty output). A mismatch prints the observed row. *)

let table : (string * Sim.stats) list =
  let row instret sim_ns deltas uart_bytes out_digest =
    { Sim.instret; sim_ns; deltas; violations = 0; uart_bytes; exit_code = 0;
      out_digest }
  in
  [
    (* compute workload, scale 0.5 *)
    ("hello", row 1722511 20725110 0 35000 "cd56a11d0f5d");
    ("dispatch", row 885012 8850120 0 0 "d41d8cd98f00");
    ("qsort", row 262205 2622050 0 0 "d41d8cd98f00");
    ("dhrystone", row 2072013 20720130 0 0 "d41d8cd98f00");
    ("primes", row 85907 859070 0 0 "d41d8cd98f00");
    ("sha512", row 661714 6617140 0 0 "d41d8cd98f00");
    ("freertos-tasks", row 400043 4012430 0 0 "d41d8cd98f00");
    (* platform and forensics workloads, scale 1.0 *)
    ("simple-sensor", row 204614 12013020 0 38400 "d4fe28e5194b");
    ("immo-fixed", row 300046 11918960 300 0 "fedebcd2aeae");
  ]

let find name = List.assoc_opt name table

let row name (s : Sim.stats) =
  Printf.sprintf "(%S, row %d %d %d %d %S) (violations %d, exit %d)" name
    s.Sim.instret s.Sim.sim_ns s.Sim.deltas s.Sim.uart_bytes s.Sim.out_digest
    s.Sim.violations s.Sim.exit_code
