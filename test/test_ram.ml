(* The sparse, page-granular RAM (Rv32.Ram) behind Vp.Memory and the DMI
   path: a model test against flat byte arrays, snapshot bytes equal to
   the flat encoder's, a fail-closed decoder, and set-up cost that does
   not follow the RAM size. *)

open Helpers
module Ram = Rv32.Ram
module Codec = Snapshot.Codec

let ps = Ram.page_size

(* --- model test ----------------------------------------------------------- *)

(* Four pages and a partial fifth: every page kind, and a last page that
   the RAM uses only in part. *)
let size = (4 * ps) + 100
let default_tag = 3

type plane = Data | Tags

type op =
  | Get of plane * int * int  (* width, offset *)
  | Set of plane * int * int * int  (* width, offset, value *)
  | Fill of plane * int * int * int  (* offset, length, byte *)
  | Blit_in of plane * int * string
  | Blit_out of plane * int * int
  | Save_restore

let plane_name = function Data -> "data" | Tags -> "tags"

let print_op = function
  | Get (p, w, off) -> Printf.sprintf "get %s w%d @%d" (plane_name p) w off
  | Set (p, w, off, v) ->
      Printf.sprintf "set %s w%d @%d = 0x%x" (plane_name p) w off v
  | Fill (p, off, len, b) ->
      Printf.sprintf "fill %s @%d len %d = %d" (plane_name p) off len b
  | Blit_in (p, off, s) ->
      Printf.sprintf "blit_in %s @%d len %d" (plane_name p) off (String.length s)
  | Blit_out (p, off, len) ->
      Printf.sprintf "blit_out %s @%d len %d" (plane_name p) off len
  | Save_restore -> "save_restore"

(* Offsets cluster around page boundaries (where accesses straddle) but
   also land anywhere, including the partial last page. *)
let gen_off width =
  let open QCheck.Gen in
  let near_boundary =
    map2
      (fun k d -> (k * ps) + d)
      (int_range 0 4) (int_range (-6) 6)
  in
  map
    (fun o -> max 0 (min (size - width) o))
    (frequency [ (3, near_boundary); (1, int_range 0 (size - 1)) ])

let gen_op =
  let open QCheck.Gen in
  let plane = oneofl [ Data; Tags ] in
  let width = oneofl [ 1; 2; 4 ] in
  (* Values drawn from a few bytes so runs, and whole-page fills, occur. *)
  let byte = frequency [ (3, oneofl [ 0; default_tag; 0xff ]); (1, int_range 0 255) ] in
  let len_from off =
    map (fun l -> min l (size - off))
      (frequency
         [ (3, int_range 0 12); (1, int_range 0 (2 * ps)); (1, return (size - off)) ])
  in
  frequency
    [
      (4, width >>= fun w -> map2 (fun p o -> Get (p, w, o)) plane (gen_off w));
      ( 4,
        width >>= fun w ->
        map3 (fun p o v -> Set (p, w, o, v)) plane (gen_off w)
          (frequency [ (1, return 0); (2, int_range 0 0x3fffffff) ]) );
      ( 2,
        plane >>= fun p ->
        gen_off 1 >>= fun o ->
        map2 (fun l b -> Fill (p, o, l, b)) (len_from o) byte );
      ( 1,
        plane >>= fun p ->
        gen_off 1 >>= fun o ->
        len_from o >>= fun l ->
        map (fun s -> Blit_in (p, o, s)) (string_size ~gen:(map Char.chr byte) (return l)) );
      (1, plane >>= fun p -> gen_off 1 >>= fun o -> map (fun l -> Blit_out (p, o, l)) (len_from o));
      (1, return Save_restore);
    ]

let flat_rle b =
  let w = Codec.writer () in
  Codec.put_bytes_rle w b;
  Codec.contents w

let image p =
  let b = Bytes.create size in
  Ram.blit_out p 0 b 0 size;
  b

let get_ref b ~width off =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor Bytes.get_uint8 b (off + i)
  done;
  !v

let set_ref b ~width off v =
  for i = 0 to width - 1 do
    Bytes.set_uint8 b (off + i) ((v lsr (8 * i)) land 0xff)
  done

let run_ops ops =
  let ram = ref (Ram.create ~size ~default_tag) in
  let ref_data = Bytes.make size '\000' in
  let ref_tags = Bytes.make size (Char.chr default_tag) in
  let pick p = match p with Data -> (Ram.data !ram, ref_data) | Tags -> (Ram.tags !ram, ref_tags) in
  let ok = ref true in
  let expect c = if not c then ok := false in
  List.iter
    (fun op ->
      match op with
      | Get (p, width, off) ->
          let rp, b = pick p in
          expect (Ram.get rp ~width off = get_ref b ~width off)
      | Set (p, width, off, v) ->
          let rp, b = pick p in
          Ram.set rp ~width off v;
          set_ref b ~width off v
      | Fill (p, off, len, v) ->
          let rp, b = pick p in
          Ram.fill rp ~off ~len v;
          Bytes.fill b off len (Char.chr v)
      | Blit_in (p, off, s) ->
          let rp, b = pick p in
          Ram.blit_in (Bytes.of_string s) 0 rp off (String.length s);
          Bytes.blit_string s 0 b off (String.length s)
      | Blit_out (p, off, len) ->
          let rp, b = pick p in
          let dst = Bytes.make (len + 2) '?' in
          Ram.blit_out rp off dst 1 len;
          expect (Bytes.sub dst 1 len = Bytes.sub b off len);
          expect (Bytes.get dst 0 = '?' && Bytes.get dst (len + 1) = '?')
      | Save_restore ->
          let w = Codec.writer () in
          Ram.save !ram w;
          let snap = Codec.contents w in
          expect (snap = flat_rle ref_data ^ flat_rle ref_tags);
          (* Restore into a RAM that already holds other data. *)
          let fresh = Ram.create ~size ~default_tag in
          Ram.fill (Ram.data fresh) ~off:0 ~len:size 0x5a;
          Ram.set (Ram.tags fresh) ~width:4 (ps - 2) 0x01020304;
          let r = Codec.reader snap in
          Ram.restore fresh r;
          Codec.expect_end r;
          ram := fresh)
    ops;
  expect (Bytes.equal (image (Ram.data !ram)) ref_data);
  expect (Bytes.equal (image (Ram.tags !ram)) ref_tags);
  (* iter_runs: maximal runs covering the plane, in order. *)
  let runs = Buffer.create size and last = ref (-1) in
  Ram.iter_runs (Ram.data !ram) (fun n c ->
      expect (n > 0 && Char.code c <> !last);
      last := Char.code c;
      Buffer.add_string runs (String.make n c));
  expect (Buffer.contents runs = Bytes.to_string ref_data);
  !ok

let prop_model =
  QCheck.Test.make ~name:"Ram agrees with flat value and tag arrays" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    run_ops

let test_bounds () =
  let ram = Ram.create ~size ~default_tag in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "get past the end" true (raises (fun () -> Ram.get (Ram.data ram) ~width:4 (size - 3)));
  check_bool "negative offset" true (raises (fun () -> Ram.get (Ram.data ram) ~width:1 (-1)));
  check_bool "set past the end" true
    (raises (fun () -> Ram.set (Ram.tags ram) ~width:2 (size - 1) 0));
  check_bool "bad width" true (raises (fun () -> Ram.get (Ram.data ram) ~width:3 0));
  check_bool "bad width straddling" true
    (raises (fun () -> Ram.set (Ram.data ram) ~width:3 (ps - 1) 0));
  check_bool "fill past the end" true
    (raises (fun () -> Ram.fill (Ram.data ram) ~off:(size - 4) ~len:5 0));
  check_bool "blit source too short" true
    (raises (fun () -> Ram.blit_in (Bytes.create 4) 0 (Ram.data ram) 0 5));
  check_int "nothing was copied" 0 (Ram.private_pages ram)

(* Stores that leave a shared page unchanged do not copy it, and whole-page
   fills share again. *)
let test_sharing () =
  let ram = Ram.create ~size ~default_tag in
  Ram.set (Ram.data ram) ~width:4 100 0;
  Ram.set (Ram.tags ram) ~width:4 100 (default_tag * 0x01010101);
  check_int "no-op stores keep pages shared" 0 (Ram.private_pages ram);
  Ram.set (Ram.data ram) ~width:4 (ps - 2) 0xdeadbeef;
  check_int "a straddling store copies both pages" 2 (Ram.private_pages ram);
  Ram.fill (Ram.data ram) ~off:0 ~len:(2 * ps) 0;
  check_int "whole-page fills share again" 0 (Ram.private_pages ram);
  Ram.fill (Ram.tags ram) ~off:0 ~len:size 7;
  check_int "whole-plane tag fill shares" 0 (Ram.private_pages ram);
  check_int "tag of the partial last page" 7 (Ram.get (Ram.tags ram) ~width:1 (size - 1))

(* --- Memory.save against the flat encoder ---------------------------------- *)

let mem_image soc =
  let ram = Vp.Memory.ram soc.Vp.Soc.memory in
  let img p =
    let b = Bytes.create (Ram.size ram) in
    Ram.blit_out p 0 b 0 (Bytes.length b);
    b
  in
  (img (Ram.data ram), img (Ram.tags ram))

let check_save_flat name soc =
  let w = Codec.writer () in
  Vp.Memory.save soc.Vp.Soc.memory w;
  let data, tags = mem_image soc in
  check_bool name true (String.equal (Codec.contents w) (flat_rle data ^ flat_rle tags))

let test_save_matches_flat () =
  let mem soc = soc.Vp.Soc.memory in
  check_save_flat "untouched" (soc_of_policy (trivial_policy ()));
  let soc = soc_of_policy (integrity_policy ()) in
  List.iter
    (fun off -> Vp.Memory.write_word (mem soc) off 0x12345678)
    [ 0; ps - 2; (3 * ps) + 7; (1 lsl 20) - 4 ];
  Vp.Memory.write_tag (mem soc) (ps + 1) 1;
  check_save_flat "written" soc;
  List.iter (fun off -> Vp.Memory.write_word (mem soc) off 0) [ 0; ps - 2; (3 * ps) + 7; (1 lsl 20) - 4 ];
  Vp.Memory.write_tag (mem soc) (ps + 1) soc.Vp.Soc.env.Vp.Env.pub;
  check_save_flat "written then re-zeroed" soc;
  let soc = soc_of_policy (integrity_policy ()) in
  Vp.Memory.fill_tags (mem soc) ~off:0 ~len:(Vp.Memory.size (mem soc)) 1;
  check_save_flat "wholly tagged" soc;
  (* The integrity policy classifies 64 KiB of program region HI at load
     time; the image itself is a few words at the region's start. *)
  let soc = soc_of_policy (integrity_policy ~image_hi:(0x8000_0010, 0x8001_2345) ()) in
  let p = Rv32_asm.Asm.create () in
  Rv32_asm.Asm.li p 10 42;
  Rv32_asm.Asm.ecall p;
  Vp.Soc.load_image soc (Rv32_asm.Asm.assemble p);
  check_save_flat "policy-region tagged" soc

(* --- fail-closed decoding ------------------------------------------------ *)

(* A mem section with every op kind: literals, runs, runs across pages. *)
let sample_section =
  lazy
    (let soc = soc_of_policy (integrity_policy ()) in
     let m = soc.Vp.Soc.memory in
     for i = 0 to 40 do
       Vp.Memory.write_byte m ((ps - 20) + i) (i * 37)
     done;
     Vp.Memory.fill_tags m ~off:(2 * ps) ~len:(ps + 9) 1;
     Vp.Memory.write_word m ((1 lsl 20) - 4) 0xcafef00d;
     let w = Codec.writer () in
     Vp.Memory.save m w;
     Codec.contents w)

(* Every u32 length field of the section: the two block headers (any
   other value is a lie) and each op's count (a lie once it exceeds what
   is left of its block). *)
type field = Header of int * int | Count of int * int  (* position, limit *)

let length_fields s =
  let u32 p = Int32.to_int (String.get_int32_le s p) land 0xffffffff in
  let fields = ref [] in
  let pos = ref 0 in
  for _ = 1 to 2 do
    let n = u32 !pos in
    fields := Header (!pos, n) :: !fields;
    pos := !pos + 4;
    let off = ref 0 in
    while !off < n do
      let op = Char.code s.[!pos] in
      let count = u32 (!pos + 1) in
      fields := Count (!pos + 1, n - !off) :: !fields;
      pos := !pos + 5 + (if op = 0 then 1 else count);
      off := !off + count
    done
  done;
  List.rev !fields

(* Decoding must end in success or Corrupt — never another exception —
   and a fresh RAM must still read as untouched (no write landed in a
   shared page). *)
let restore_fails_closed s =
  let soc = soc_of_policy (integrity_policy ()) in
  let outcome =
    match
      let r = Codec.reader s in
      Vp.Memory.restore soc.Vp.Soc.memory r;
      Codec.expect_end r
    with
    | () -> true
    | exception Codec.Corrupt _ -> true
    | exception _ -> false
  in
  let fresh = Ram.create ~size ~default_tag:soc.Vp.Soc.env.Vp.Env.pub in
  let runs = ref 0 in
  Ram.iter_runs (Ram.data fresh) (fun _ _ -> incr runs);
  Ram.iter_runs (Ram.tags fresh) (fun _ _ -> incr runs);
  outcome && !runs = 2

let restore_corrupt s =
  match
    let r = Codec.reader s in
    Vp.Memory.restore (soc_of_policy (integrity_policy ())).Vp.Soc.memory r;
    Codec.expect_end r
  with
  | () -> false
  | exception Codec.Corrupt _ -> true

let prop_truncated =
  QCheck.Test.make ~name:"truncated mem sections are Corrupt" ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun k ->
      let s = Lazy.force sample_section in
      let cut = k mod String.length s in
      let t = String.sub s 0 cut in
      restore_fails_closed t && restore_corrupt t)

let prop_bit_flips =
  QCheck.Test.make ~name:"bit-flipped mem sections fail closed" ~count:300
    QCheck.(make ~print:Print.(list (pair int int)) Gen.(list_size (int_range 1 4) (pair (int_range 0 1_000_000) (int_range 0 7))))
    (fun flips ->
      let s = Bytes.of_string (Lazy.force sample_section) in
      List.iter
        (fun (k, bit) ->
          let i = k mod Bytes.length s in
          Bytes.set_uint8 s i (Bytes.get_uint8 s i lxor (1 lsl bit)))
        flips;
      restore_fails_closed (Bytes.to_string s))

(* A lie beyond the block is always Corrupt; any other value of a count
   field must still fail closed. *)
let prop_lying_lengths =
  QCheck.Test.make ~name:"lying length and count fields fail closed" ~count:300
    QCheck.(
      make ~print:Print.(triple int bool int)
        Gen.(triple (int_range 0 1_000_000) bool (int_range 0 0x7fffffff)))
    (fun (k, beyond, r) ->
      let s = Lazy.force sample_section in
      let fields = length_fields s in
      let field = List.nth fields (k mod List.length fields) in
      let at, v, must_fail =
        match field with
        | Header (at, n) -> (at, (if r = n then n + 1 else r), true)
        | Count (at, limit) ->
            if beyond then (at, limit + 1 + (r mod (0xffffffff - limit)), true)
            else (at, r mod (limit + 1), false)
      in
      let b = Bytes.of_string s in
      Bytes.set_int32_le b at (Int32.of_int v);
      let t = Bytes.to_string b in
      restore_fails_closed t && ((not must_fail) || restore_corrupt t))

(* --- set-up cost ------------------------------------------------------------ *)

(* Words allocated directly in the major heap (large blocks) by [f],
   best of a few runs so a stray minor collection cannot inflate it. *)
let direct_major_words f =
  let once () =
    Gc.full_major ();
    let _, p0, m0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let _, p1, m1 = Gc.counters () in
    (m1 -. m0) -. (p1 -. p0)
  in
  List.fold_left min infinity (List.init 5 (fun _ -> once ()))

let test_create_cost_flat () =
  let create ram_size () =
    let policy = trivial_policy () in
    let monitor = Dift.Monitor.create policy.Dift.Policy.lattice in
    Vp.Soc.create ~policy ~monitor ~ram_size ()
  in
  let small = direct_major_words (create (1 lsl 20)) in
  let large = direct_major_words (create (16 lsl 20)) in
  (* A dense layout grew by ~16M words from 1 to 16 MiB (two byte planes
     and three per-word tables). What is left is one directory word per
     page of RAM and of each code table. *)
  let growth = large -. small in
  if growth > 16384. then
    Alcotest.failf "Soc.create major words grew by %.0f (1 MiB: %.0f, 16 MiB: %.0f)"
      growth small large

let () =
  Alcotest.run "ram"
    [
      ( "model",
        [
          qtest prop_model;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "page sharing" `Quick test_sharing;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "Memory.save equals the flat encoder" `Quick
            test_save_matches_flat;
          qtest prop_truncated;
          qtest prop_bit_flips;
          qtest prop_lying_lengths;
        ] );
      ( "cost",
        [
          Alcotest.test_case "Soc.create does not grow with ram_size" `Quick
            test_create_cost_flat;
        ] );
    ]
