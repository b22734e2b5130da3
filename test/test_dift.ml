(* The DIFT engine end to end: taint propagation through the ISS, the
   execution-clearance checks of Section V-B2, policy lookups, and the
   monitor. *)

open Helpers
module A = Rv32_asm.Asm
module R = Rv32.Reg
module L = Dift.Lattice

let lat = L.ifp3 ()
let t n = L.tag_of_name lat n

(* A policy with a (HC,HI) "secret" region and all execution clearances
   active, plus a protected region. *)
let policy_with ?(exec_fetch = true) ?(exec_branch = true)
    ?(exec_mem_addr = true) ~secret_lo ~secret_hi ~image () =
  let lo, hi = image in
  Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
    ~classification:
      [
        Dift.Policy.region ~name:"secret" ~lo:secret_lo ~hi:secret_hi
          ~tag:(t "HC,HI");
        Dift.Policy.region ~name:"program" ~lo ~hi ~tag:(t "LC,HI");
      ]
    ~output_clearance:[ ("uart", t "LC,LI") ]
    ?exec_fetch:(if exec_fetch then Some (t "LC,HI") else None)
    ?exec_branch:(if exec_branch then Some (t "LC,LI") else None)
    ?exec_mem_addr:(if exec_mem_addr then Some (t "LC,LI") else None)
    ()

(* Assemble, build the policy around the "secret" label, run; return
   (soc, result-of-run, monitor). *)
let run_dift ?exec_fetch ?exec_branch ?exec_mem_addr ?(mode = Dift.Monitor.Halt)
    build =
  let p = A.create () in
  build p;
  let img = A.assemble p in
  let secret_lo = Rv32_asm.Image.symbol img "secret" in
  let policy =
    policy_with ?exec_fetch ?exec_branch ?exec_mem_addr ~secret_lo
      ~secret_hi:(secret_lo + 15)
      ~image:(img.Rv32_asm.Image.org, Rv32_asm.Image.limit img - 1)
      ()
  in
  let monitor = Dift.Monitor.create ~mode lat in
  let soc = Vp.Soc.create ~policy ~monitor ~tracking:true () in
  Vp.Soc.load_image soc img;
  let result =
    try Ok (Vp.Soc.run_for_instructions soc 100_000)
    with Dift.Violation.Violation v -> Error v
  in
  (soc, result, monitor)

let secret_data p =
  A.align p 4;
  A.label p "secret";
  A.ascii p "0123456789abcdef"

let expect_kind result want =
  match result with
  | Error v -> check_bool "violation kind" true (want v.Dift.Violation.kind)
  | Ok _ -> Alcotest.fail "expected a violation"

(* Taint propagates through arithmetic: secret + public = secret. *)
let test_alu_propagation () =
  let soc, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lw p R.t1 R.t0 0;
        A.li p R.t2 1;
        A.add p R.s2 R.t1 R.t2 (* still secret *);
        A.xor p R.s3 R.t1 R.t1 (* value 0 but tag still secret (no constant folding) *);
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  (match result with Ok _ -> () | Error _ -> Alcotest.fail "no violation expected");
  check_int "s2 tainted" (t "HC,HI") (soc.Vp.Soc.cpu.Vp.Soc.cpu_get_reg_tag R.s2);
  check_int "s3 tainted despite zero value" (t "HC,HI")
    (soc.Vp.Soc.cpu.Vp.Soc.cpu_get_reg_tag R.s3)

(* Storing a secret then loading it back keeps the taint (memory tags). *)
let test_memory_propagation () =
  let soc, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lbu p R.t1 R.t0 0;
        A.la p R.t2 "scratch";
        A.sb p R.t1 R.t2 0;
        A.lbu p R.s2 R.t2 0;
        Firmware.Rt.exit_ p ();
        secret_data p;
        A.label p "scratch";
        A.space p 4)
  in
  (match result with Ok _ -> () | Error _ -> Alcotest.fail "no violation expected");
  check_int "taint survives store/load" (t "HC,HI")
    (soc.Vp.Soc.cpu.Vp.Soc.cpu_get_reg_tag R.s2)

(* Partial overwrite: storing a public byte into a secret word makes the
   word's load tag the LUB (byte-granular tags). *)
let test_byte_granular_tags () =
  let soc, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "scratch";
        A.la p R.t1 "secret";
        A.lw p R.t2 R.t1 0;
        A.sw p R.t2 R.t0 0 (* whole word secret *);
        A.li p R.t3 0x7f;
        A.sb p R.t3 R.t0 0 (* one public byte *);
        A.lbu p R.s2 R.t0 0 (* public byte alone *);
        A.lw p R.s3 R.t0 0 (* word still partially secret *);
        Firmware.Rt.exit_ p ();
        secret_data p;
        A.align p 4;
        A.label p "scratch";
        A.space p 4)
  in
  (match result with Ok _ -> () | Error _ -> Alcotest.fail "no violation expected");
  let tag r = soc.Vp.Soc.cpu.Vp.Soc.cpu_get_reg_tag r in
  check_int "overwritten byte is clean" (t "LC,HI") (tag R.s2);
  check_int "word LUBs remaining secret bytes" (t "HC,HI") (tag R.s3)

let test_branch_clearance () =
  let _, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lw p R.t1 R.t0 0;
        A.beqz_l p R.t1 "somewhere";
        A.label p "somewhere";
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  expect_kind result (function Dift.Violation.Exec_branch -> true | _ -> false)

let test_jalr_clearance () =
  let _, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lw p R.t1 R.t0 0;
        A.jalr p R.ra R.t1 0;
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  expect_kind result (function Dift.Violation.Exec_branch -> true | _ -> false)

let test_mem_addr_clearance () =
  let _, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lw p R.t1 R.t0 0 (* secret value *);
        A.andi p R.t1 R.t1 3;
        A.la p R.t2 "scratch";
        A.add p R.t2 R.t2 R.t1 (* address depends on secret *);
        A.lbu p R.a0 R.t2 0;
        Firmware.Rt.exit_ p ();
        secret_data p;
        A.label p "scratch";
        A.space p 8)
  in
  expect_kind result (function Dift.Violation.Exec_mem_addr -> true | _ -> false)

let test_branch_check_disabled () =
  let _, result, _ =
    run_dift ~exec_branch:false (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lw p R.t1 R.t0 0;
        A.beqz_l p R.t1 "somewhere";
        A.label p "somewhere";
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  match result with
  | Ok (Rv32.Core.Exited 0) -> ()
  | _ -> Alcotest.fail "disabled check must not fire"

(* Implicit-flow laundering (the motivating example of Section V-B2a):
   if (secret & 1) then public <- 1 — with the branch check off, the
   public variable's TAG stays clean even though it now reveals a secret
   bit. The branch clearance is exactly what catches this. *)
let test_implicit_flow_needs_branch_check () =
  let soc, result, _ =
    run_dift ~exec_branch:false (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lbu p R.t1 R.t0 0;
        A.andi p R.t1 R.t1 1;
        A.li p R.s2 0;
        A.beqz_l p R.t1 "done";
        A.li p R.s2 1;
        A.label p "done";
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  (match result with Ok _ -> () | Error _ -> Alcotest.fail "check disabled");
  check_int "laundered: s2 looks public" (t "LC,HI")
    (soc.Vp.Soc.cpu.Vp.Soc.cpu_get_reg_tag R.s2)

let test_record_mode_collects () =
  let _, result, monitor =
    run_dift ~mode:Dift.Monitor.Record (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lw p R.t1 R.t0 0;
        A.beqz_l p R.t1 "x";
        A.label p "x";
        A.beqz_l p R.t1 "y";
        A.label p "y";
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  (match result with Ok _ -> () | Error _ -> Alcotest.fail "record mode must not raise");
  check_int "both violations recorded" 2 (Dift.Monitor.violation_count monitor);
  check_bool "checks counted" true (Dift.Monitor.check_count monitor > 0)

let test_violation_diagnostics () =
  let _, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.la p R.t0 "secret";
        A.lw p R.t1 R.t0 0;
        A.beqz_l p R.t1 "z";
        A.label p "z";
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  match result with
  | Error v ->
      check_bool "pc recorded" true (v.Dift.Violation.pc <> None);
      check_int "offending tag" (t "HC,HI") v.Dift.Violation.data_tag;
      check_int "required tag" (t "LC,LI") v.Dift.Violation.required_tag;
      let s = Dift.Violation.to_string lat v in
      check_bool "message names the classes" true
        (Astring_contains.contains ~sub:"HC,HI" s
        && Astring_contains.contains ~sub:"LC,LI" s)
  | Ok _ -> Alcotest.fail "expected violation"

(* Policy unit behaviour. *)
let test_policy_lookups () =
  let p =
    Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
      ~classification:
        [
          Dift.Policy.region ~name:"a" ~lo:10 ~hi:19 ~tag:(t "HC,HI");
          Dift.Policy.region ~name:"b" ~lo:15 ~hi:29 ~tag:(t "LC,HI");
        ]
      ~output_clearance:[ ("uart", t "LC,LI") ]
      ~store_clearance:[ Dift.Policy.region ~name:"p" ~lo:100 ~hi:101 ~tag:(t "HC,HI") ]
      ()
  in
  check_int "first region wins" (t "HC,HI") (Dift.Policy.classify_at p 15);
  check_int "second region" (t "LC,HI") (Dift.Policy.classify_at p 25);
  check_int "default" (t "LC,LI") (Dift.Policy.classify_at p 99);
  check_bool "store region hit" true
    (Dift.Policy.store_required_at p 100 = Some ("p", t "HC,HI"));
  check_bool "store region miss" true (Dift.Policy.store_required_at p 102 = None);
  check_int "store clearance hit" (t "HC,HI")
    (Dift.Policy.store_clearance_at p 101);
  check_int "store clearance miss" (-1) (Dift.Policy.store_clearance_at p 102);
  check_int "output lookup" (t "LC,LI") (Dift.Policy.output_clearance_of p "uart");
  check_int "unknown port unchecked" (-1) (Dift.Policy.output_clearance_of p "spi");
  check_bool "bad region rejected" true
    (try ignore (Dift.Policy.region ~name:"x" ~lo:5 ~hi:4 ~tag:0); false
     with Invalid_argument _ -> true)

let test_policy_validate () =
  let ok_policy =
    Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
      ~classification:
        [ Dift.Policy.region ~name:"pin" ~lo:10 ~hi:20 ~tag:(t "HC,HI");
          Dift.Policy.region ~name:"prog" ~lo:0 ~hi:100 ~tag:(t "LC,HI") ]
      ()
  in
  check_bool "specific-first is valid" true (Dift.Policy.validate ok_policy = Ok ());
  let shadowed =
    Dift.Policy.make ~lattice:lat ~default_tag:(t "LC,LI")
      ~classification:
        [ Dift.Policy.region ~name:"prog" ~lo:0 ~hi:100 ~tag:(t "LC,HI");
          Dift.Policy.region ~name:"pin" ~lo:10 ~hi:20 ~tag:(t "HC,HI") ]
      ()
  in
  check_bool "shadowed region flagged" true
    (match Dift.Policy.validate shadowed with Error _ -> true | Ok () -> false);
  let bad_tag =
    Dift.Policy.make ~lattice:lat ~default_tag:99 ()
  in
  check_bool "out-of-range tag flagged" true
    (match Dift.Policy.validate bad_tag with Error _ -> true | Ok () -> false)

(* MMIO access to an invalid peripheral register traps like a bus fault. *)
let test_mmio_command_error_traps () =
  let _, result, _ =
    run_dift (fun p ->
        Firmware.Rt.entry p ();
        A.j p "go";
        A.align p 4;
        A.label p "handler";
        A.csrrs p R.a0 0x342 R.zero (* mcause *);
        Firmware.Rt.exit_a0 p;
        A.label p "go";
        Firmware.Rt.setup_trap_handler p "handler";
        A.li p R.t0 Vp.Soc.uart_base;
        A.li p R.t1 1;
        A.sb p R.t1 R.t0 0x40 (* no such register *);
        Firmware.Rt.exit_ p ();
        secret_data p)
  in
  match result with
  | Ok (Rv32.Core.Exited 7) -> () (* store access fault *)
  | Ok (Rv32.Core.Exited c) -> Alcotest.failf "wrong cause %d" c
  | Ok _ -> Alcotest.fail "no exit"
  | Error _ -> Alcotest.fail "unexpected violation"

let test_monitor_events () =
  let m = Dift.Monitor.create ~mode:Dift.Monitor.Record lat in
  Dift.Monitor.report m (Dift.Monitor.Note "hello");
  Dift.Monitor.report m
    (Dift.Monitor.Declassified { where = "aes"; from_tag = t "HC,HI"; to_tag = t "LC,LI" });
  Dift.Monitor.violation m
    { Dift.Violation.kind = Dift.Violation.Exec_fetch; data_tag = t "LC,LI";
      required_tag = t "LC,HI"; pc = Some 0x80000000; detail = "" };
  check_int "three events" 3 (List.length (Dift.Monitor.events m));
  check_int "one violation" 1 (Dift.Monitor.violation_count m);
  check_int "one declass" 1 (Dift.Monitor.declassification_count m);
  Dift.Monitor.clear m;
  check_int "cleared" 0 (List.length (Dift.Monitor.events m))

let () =
  Alcotest.run "dift"
    [
      ( "propagation",
        [
          Alcotest.test_case "ALU LUB" `Quick test_alu_propagation;
          Alcotest.test_case "through memory" `Quick test_memory_propagation;
          Alcotest.test_case "byte-granular tags" `Quick test_byte_granular_tags;
        ] );
      ( "execution clearance",
        [
          Alcotest.test_case "branch condition" `Quick test_branch_clearance;
          Alcotest.test_case "indirect jump" `Quick test_jalr_clearance;
          Alcotest.test_case "memory address" `Quick test_mem_addr_clearance;
          Alcotest.test_case "disabled check silent" `Quick
            test_branch_check_disabled;
          Alcotest.test_case "implicit flow motivates branch check" `Quick
            test_implicit_flow_needs_branch_check;
        ] );
      ( "monitor & policy",
        [
          Alcotest.test_case "record mode collects" `Quick test_record_mode_collects;
          Alcotest.test_case "violation diagnostics" `Quick
            test_violation_diagnostics;
          Alcotest.test_case "policy lookups" `Quick test_policy_lookups;
          Alcotest.test_case "policy validate" `Quick test_policy_validate;
          Alcotest.test_case "mmio command error traps" `Quick
            test_mmio_command_error_traps;
          Alcotest.test_case "monitor events" `Quick test_monitor_events;
        ] );
    ]
