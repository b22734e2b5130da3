(* TLM payloads, sockets and the address-mapped router. *)

open Helpers
module P = Tlm.Payload
module S = Tlm.Socket
module R = Tlm.Router

let lat = Dift.Lattice.integrity ()
let hi = Dift.Lattice.tag_of_name lat "HI"
let li = Dift.Lattice.tag_of_name lat "LI"

let test_payload_word () =
  let p = P.create ~len:4 ~default_tag:hi () in
  P.set_word p 0x11223344;
  check_int "byte 0 (LE)" 0x44 (P.get_byte p 0);
  check_int "byte 3" 0x11 (P.get_byte p 3);
  check_int "word" 0x11223344 (P.get_word p);
  P.set_word p 0xfedcba98;
  check_int "word is unsigned" 0xfedcba98 (P.get_word p);
  (* Every length stores the value's low bytes and reads them back. *)
  List.iter
    (fun len ->
      let p = P.create ~len ~default_tag:hi () in
      P.set_word p 0x7766554433221100;
      for i = 0 to len - 1 do
        check_int (Printf.sprintf "len %d byte %d" len i) (0x11 * i)
          (P.get_byte p i)
      done;
      check_int
        (Printf.sprintf "len %d word" len)
        (0x7766554433221100 land ((1 lsl (8 * len)) - 1))
        (P.get_word p))
    [ 1; 2; 3; 4; 5 ]

let test_payload_word_tag () =
  let p = P.create ~len:4 ~default_tag:hi () in
  check_int "uniform tags" hi (P.word_tag lat p);
  check_int "packed uniform" (hi * 0x1010101) (P.packed_tags p);
  P.set_tag p 2 li;
  check_int "word tag is LUB" li (P.word_tag lat p);
  check_int "packed" ((hi * 0x1000101) lor (li lsl 16)) (P.packed_tags p);
  P.set_all_tags p hi;
  check_int "set_all_tags" (hi * 0x1010101) (P.packed_tags p)

let test_payload_tags_travel () =
  let p = P.create ~len:8 ~default_tag:hi () in
  P.set_all_tags p li;
  for i = 0 to 7 do
    check_int "all tagged" li (P.get_tag p i)
  done

(* An echo target that records what it saw and doubles incoming bytes. *)
let make_echo name =
  let last = ref None in
  let t =
    S.target ~name (fun p delay ->
        last := Some (p.P.cmd, p.P.addr, P.get_byte p 0);
        if P.is_read p then P.set_byte p 0 0x5a;
        p.P.resp <- P.Ok_resp;
        Sysc.Time.add delay (Sysc.Time.ns 7))
  in
  (t, last)

let test_socket_binding () =
  let t, last = make_echo "echo" in
  let i = S.initiator ~name:"cpu" in
  check_bool "unbound" false (S.is_bound i);
  check_bool "unbound transport raises" true
    (try
       ignore (S.transport i (P.create ~len:1 ~default_tag:hi ()) 0);
       false
     with S.Unbound _ -> true);
  S.bind i t;
  check_bool "bound" true (S.is_bound i);
  let p = P.create ~cmd:P.Read ~addr:0x10 ~len:1 ~default_tag:hi () in
  let d = S.transport i p Sysc.Time.zero in
  check_int "delay annotated" (Sysc.Time.ns 7) d;
  check_int "target ran" 0x5a (P.get_byte p 0);
  check_bool "target saw the address" true (!last = Some (P.Read, 0x10, 0))

let test_router_dispatch_and_offset () =
  let r = R.create ~name:"bus" () in
  let seen = ref [] in
  let target name =
    S.target ~name (fun p d ->
        seen := (name, p.P.addr) :: !seen;
        p.P.resp <- P.Ok_resp;
        d)
  in
  R.map r ~lo:0x1000 ~hi:0x1fff (target "a");
  R.map r ~lo:0x8000 ~hi:0x8fff (target "b");
  let sock = R.target_socket r in
  let p = P.create ~cmd:P.Read ~addr:0x1010 ~len:1 ~default_tag:hi () in
  ignore (S.call sock p Sysc.Time.zero);
  check_bool "routed to a with local offset" true (!seen = [ ("a", 0x10) ]);
  check_int "global address restored" 0x1010 p.P.addr;
  p.P.addr <- 0x8123;
  ignore (S.call sock p Sysc.Time.zero);
  check_bool "routed to b" true (List.hd !seen = ("b", 0x123))

let test_router_unmapped () =
  let r = R.create ~name:"bus" () in
  let sock = R.target_socket r in
  let p = P.create ~cmd:P.Read ~addr:0xdead ~len:1 ~default_tag:hi () in
  ignore (S.call sock p Sysc.Time.zero);
  check_bool "address error" true (p.P.resp = P.Address_error)

let test_router_overlap_rejected () =
  let r = R.create ~name:"bus" () in
  let t = S.target ~name:"x" (fun _ d -> d) in
  R.map r ~lo:0 ~hi:10 t;
  check_bool "overlap" true
    (try R.map r ~lo:5 ~hi:20 t; false with Invalid_argument _ -> true);
  check_bool "empty range" true
    (try R.map r ~lo:30 ~hi:20 t; false with Invalid_argument _ -> true)

(* Many targets, mapped in shuffled order: every address must reach its
   own target with the right local offset (exercises the sorted-array
   binary search across all positions, both ends included), gaps between
   ranges must still address-error, and [mappings] must keep insertion
   order. *)
let test_router_many_targets () =
  let r = R.create ~name:"bus" () in
  let n = 64 in
  let hit = Array.make n (-1) in
  (* Deterministic shuffle of the mapping order. *)
  let order = Array.init n (fun i -> (i * 37) mod n) in
  Array.iter
    (fun i ->
      let t =
        S.target ~name:(Printf.sprintf "t%02d" i) (fun p d ->
            hit.(i) <- p.P.addr;
            p.P.resp <- P.Ok_resp;
            d)
      in
      (* Ranges of width 0x100 with a 0x100 gap between neighbours. *)
      R.map r ~lo:(i * 0x200) ~hi:((i * 0x200) + 0xff) t)
    order;
  let sock = R.target_socket r in
  for i = 0 to n - 1 do
    Array.fill hit 0 n (-1);
    let off = if i land 1 = 0 then 0 else 0xff in
    let p =
      P.create ~cmd:P.Read ~addr:((i * 0x200) + off) ~len:1 ~default_tag:hi ()
    in
    ignore (S.call sock p Sysc.Time.zero);
    check_bool "ok response" true (p.P.resp = P.Ok_resp);
    check_int (Printf.sprintf "target %d hit at local offset" i) off hit.(i);
    Array.iteri
      (fun j a -> if j <> i && a <> -1 then Alcotest.failf "target %d also hit" j)
      hit;
    (* The gap just above this range is unmapped. *)
    let q =
      P.create ~cmd:P.Read ~addr:((i * 0x200) + 0x100) ~len:1 ~default_tag:hi ()
    in
    ignore (S.call sock q Sysc.Time.zero);
    check_bool "gap address-errors" true (q.P.resp = P.Address_error)
  done;
  (* Below the lowest and above the highest range. *)
  List.iter
    (fun (what, addr) ->
      let p = P.create ~cmd:P.Read ~addr ~len:1 ~default_tag:hi () in
      ignore (S.call sock p Sysc.Time.zero);
      check_bool what true (p.P.resp = P.Address_error))
    [ ("below all", -1); ("above all", ((n - 1) * 0x200) + 0x100) ];
  (* Insertion (mapping) order is preserved in the listing. *)
  let listed = List.map (fun (_, _, name) -> name) (R.mappings r) in
  let expected =
    Array.to_list (Array.map (fun i -> Printf.sprintf "t%02d" i) order)
  in
  Alcotest.(check (list string)) "mapping order" expected listed

let test_mappings_listing () =
  let r = R.create ~name:"bus" () in
  let t n = S.target ~name:n (fun _ d -> d) in
  R.map r ~lo:0 ~hi:1 (t "a");
  R.map r ~lo:2 ~hi:3 (t "b");
  Alcotest.(check (list (triple int int string)))
    "mappings" [ (0, 1, "a"); (2, 3, "b") ] (R.mappings r)

let prop_payload_byte_roundtrip =
  let open QCheck in
  Test.make ~name:"payload byte set/get" ~count:300
    (pair (int_bound 255) (int_bound 7))
    (fun (v, i) ->
      let p = P.create ~len:8 ~default_tag:hi () in
      P.set_byte p i v;
      P.get_byte p i = v)

let () =
  Alcotest.run "tlm"
    [
      ( "payload",
        [
          Alcotest.test_case "word accessors" `Quick test_payload_word;
          Alcotest.test_case "word tag LUB" `Quick test_payload_word_tag;
          Alcotest.test_case "tags travel" `Quick test_payload_tags_travel;
        ] );
      ( "socket/router",
        [
          Alcotest.test_case "socket binding" `Quick test_socket_binding;
          Alcotest.test_case "router dispatch + offset" `Quick
            test_router_dispatch_and_offset;
          Alcotest.test_case "unmapped address" `Quick test_router_unmapped;
          Alcotest.test_case "overlap rejected" `Quick test_router_overlap_rejected;
          Alcotest.test_case "many targets, binary search" `Quick
            test_router_many_targets;
          Alcotest.test_case "mappings listing" `Quick test_mappings_listing;
        ] );
      ("props", [ qtest prop_payload_byte_roundtrip ]);
    ]
