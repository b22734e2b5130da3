(* Allocation budgets of the simulator's hot paths, counted with
   Gc.minor_words (exact and deterministic for one domain): a routed MMIO
   load or store allocates nothing, whichever peripheral answers it, and
   full firmware runs stay within a few words per retired instruction.
   The budgets hold under both the dev and the release build profile. *)

open Helpers
module Bus = Rv32.Bus_if

(* Minor-heap words allocated by [f ()], less what reading the counter
   itself costs. *)
let words f =
  let probe () =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let idle () =
    let w0 = Gc.minor_words () in
    Gc.minor_words () -. w0
  in
  int_of_float (probe () -. idle ())

(* --- MMIO registers ------------------------------------------------------ *)

(* Output and key-input clearances at the top class: every check runs and
   passes. *)
let soc_and_bus () =
  let base = integrity_policy () in
  let lat = base.Dift.Policy.lattice in
  let top = Dift.Lattice.tag_of_name lat "LI" in
  let policy =
    {
      base with
      Dift.Policy.output_clearance = [ ("uart", top); ("can", top); ("gpio", top) ];
    }
  in
  let soc = soc_of_policy ~aes_in_clearance:top policy in
  let lat = soc.Vp.Soc.env.Vp.Env.lat in
  let bus =
    Bus.create ~lattice:lat ~default_tag:soc.Vp.Soc.env.Vp.Env.pub
      ~tracking:true ~name:"probe"
  in
  Tlm.Socket.bind (Bus.socket bus) (Tlm.Router.target_socket soc.Vp.Soc.router);
  (soc, bus)

type access = Load of int | Store of int * int  (* width; width, value *)

(* Each peripheral's status and data registers, as the firmware reaches
   them: (name, address, access). *)
let registers =
  let open Vp.Soc in
  [
    ("uart status", uart_base + 0x08, Load 4);
    ("uart rx data", uart_base + 0x04, Load 4);
    ("uart rx data (byte)", uart_base + 0x04, Load 1);
    ("uart tx data", uart_base + 0x00, Store (1, 0x41));
    ("gpio input", gpio_base + 0x08, Load 4);
    ("gpio output", gpio_base + 0x04, Store (4, 0xff));
    ("gpio output readback", gpio_base + 0x04, Load 4);
    ("sensor frame data", sensor_base + 0x10, Load 4);
    ("sensor frame data (half)", sensor_base + 0x12, Load 2);
    ("sensor class", sensor_base + 0x40, Load 4);
    ("can tx data", can_base + 0x00, Store (4, 0x11223344));
    ("can tx status", can_base + 0x08, Load 4);
    ("can rx data", can_base + 0x10, Load 4);
    ("can rx status", can_base + 0x18, Load 4);
    ("aes key", aes_base + 0x00, Store (4, 0x01020304));
    ("aes input", aes_base + 0x10, Store (4, 0x05060708));
    ("aes output", aes_base + 0x20, Load 4);
    ("aes status", aes_base + 0x30, Load 4);
    ("dma status", dma_base + 0x0c, Load 4);
    ("plic pending", plic_base + 0x00, Load 4);
    ("plic enable", plic_base + 0x04, Store (4, 0x3e));
    ("plic claim", plic_base + 0x08, Load 4);
    ("plic complete", plic_base + 0x08, Store (4, 2));
    ("plic priority", plic_base + 0x84, Load 4);
    ("clint mtime", clint_base + 0xbff8, Load 4);
    ("clint msip", clint_base + 0x0000, Load 4);
    ("wdt status", wdt_base + 0x0c, Load 4);
    ("wdt enable", wdt_base + 0x08, Load 4);
  ]

let rounds = 1000

let test_register (name, addr, access) () =
  let soc, bus = soc_and_bus () in
  let tag = soc.Vp.Soc.env.Vp.Env.pub in
  (* Keep the rx queue non-empty, so the data-register loads take the
     dequeue path rather than the empty-queue one. *)
  Vp.Uart.push_rx soc.Vp.Soc.uart (String.make (2 * rounds) 'x');
  let run () =
    for _ = 1 to rounds do
      match access with
      | Load width -> ignore (Sys.opaque_identity (Bus.load bus ~width ~addr))
      | Store (width, value) -> Bus.store bus ~width ~addr ~value ~tag
    done
  in
  (* A first round reaches steady state (the UART's transmit buffer has
     grown to hold a round's bytes); the transmit log is then emptied
     without giving that capacity back. *)
  run ();
  Vp.Uart.clear_tx soc.Vp.Soc.uart;
  check_int (name ^ ": words over " ^ string_of_int rounds ^ " accesses") 0
    (words run)

(* --- Whole runs ------------------------------------------------------------ *)

let def name =
  List.find
    (fun d -> d.Benchkit.Defs.d_name = name)
    (Benchkit.Defs.table2 ~scale:0.25)

(* Minor words per retired instruction over [Soc.run] (block compilation
   included, SoC creation and image loading not). *)
let words_per_insn ~tracking name =
  let d = def name in
  let img = d.Benchkit.Defs.make_image () in
  let policy = d.Benchkit.Defs.make_policy img in
  let aes_out_tag, aes_in_clearance =
    match d.Benchkit.Defs.aes img with
    | Some (o, c) -> (Some o, Some c)
    | None -> (None, None)
  in
  let soc =
    soc_of_policy ~tracking ?aes_out_tag ?aes_in_clearance
      ?sensor_period:d.Benchkit.Defs.sensor_period policy
  in
  Vp.Soc.load_image soc img;
  d.Benchkit.Defs.setup soc;
  Vp.Soc.start soc;
  let w = words (fun () -> Vp.Soc.run soc) in
  let cpu = soc.Vp.Soc.cpu in
  expect_exit (cpu.Vp.Soc.cpu_exit ()) 0;
  float_of_int w /. float_of_int (cpu.Vp.Soc.cpu_instret ())

let test_run ~tracking name budget () =
  let wpi = words_per_insn ~tracking name in
  Printf.printf "%s: %.3f minor words per instruction\n" name wpi;
  if wpi > budget then
    Alcotest.failf "%s %s: %.2f minor words per instruction, budget %.0f" name
      (if tracking then "VP+" else "VP")
      wpi budget

let () =
  Alcotest.run "alloc"
    [
      ( "mmio register",
        List.map
          (fun ((name, _, _) as r) ->
            Alcotest.test_case name `Quick (test_register r))
          registers );
      ( "words per instruction",
        [
          Alcotest.test_case "simple-sensor VP+" `Quick
            (test_run ~tracking:true "simple-sensor" 8.);
          Alcotest.test_case "immo-fixed VP+" `Quick
            (test_run ~tracking:true "immo-fixed" 8.);
          Alcotest.test_case "hello VP" `Quick
            (test_run ~tracking:false "hello" 1.);
        ] );
    ]
