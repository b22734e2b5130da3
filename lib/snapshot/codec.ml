exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- Writer ---------------------------------------------------------- *)

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents w = Buffer.contents w
let put_u8 w v = Buffer.add_uint8 w (v land 0xff)

let put_u32 w v =
  Buffer.add_uint8 w (v land 0xff);
  Buffer.add_uint8 w ((v lsr 8) land 0xff);
  Buffer.add_uint8 w ((v lsr 16) land 0xff);
  Buffer.add_uint8 w ((v lsr 24) land 0xff)

let put_i64 w v = Buffer.add_int64_le w (Int64.of_int v)
let put_bool w b = put_u8 w (if b then 1 else 0)

(* LEB128, unsigned. Graph stores are mostly small ids and deltas, so
   the one-byte common case halves them versus fixed u32s. *)
let put_varint w v =
  if v < 0 then invalid_arg "Codec.put_varint: negative value";
  let rec go v =
    if v < 0x80 then Buffer.add_uint8 w v
    else begin
      Buffer.add_uint8 w (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

let put_string w s =
  put_u32 w (String.length s);
  Buffer.add_string w s

(* RLE: total length, then ops until exhausted. Op 0 = run (u32 count,
   u8 byte), op 1 = literal (u32 len, raw bytes). Runs shorter than 8
   bytes go into the surrounding literal: below that the run op's 6-byte
   overhead loses.

   The encoder is fed maximal runs in order, so a sparse image (see
   [Rv32.Ram]) can hand over a whole untouched page as one run without
   scanning it; the output depends only on the flat byte sequence. *)
let min_run = 8

type rle = {
  rw : writer;
  r_len : int;
  mutable r_pos : int;
  mutable r_last : int;  (* byte of the previous run; -1 before the first *)
  lit : Buffer.t;  (* pending literal: the short runs since the last long one *)
}

let rle_start w ~len =
  put_u32 w len;
  { rw = w; r_len = len; r_pos = 0; r_last = -1; lit = Buffer.create 64 }

let flush_literal e =
  let n = Buffer.length e.lit in
  if n > 0 then begin
    put_u8 e.rw 1;
    put_u32 e.rw n;
    Buffer.add_buffer e.rw e.lit;
    Buffer.clear e.lit
  end

let rle_run e n c =
  let b = Char.code c in
  if n <= 0 || b = e.r_last || e.r_pos + n > e.r_len then
    invalid_arg "Codec.rle_run: runs must be non-empty, maximal and in bounds";
  if n >= min_run then begin
    flush_literal e;
    put_u8 e.rw 0;
    put_u32 e.rw n;
    put_u8 e.rw b
  end
  else
    for _ = 1 to n do
      Buffer.add_char e.lit c
    done;
  e.r_pos <- e.r_pos + n;
  e.r_last <- b

let rle_finish e =
  if e.r_pos <> e.r_len then
    invalid_arg "Codec.rle_finish: runs do not cover the declared length";
  flush_literal e

let put_bytes_rle w b =
  let n = Bytes.length b in
  let e = rle_start w ~len:n in
  let i = ref 0 in
  while !i < n do
    let c = Bytes.unsafe_get b !i in
    let j = ref (!i + 1) in
    while !j < n && Bytes.unsafe_get b !j = c do
      incr j
    done;
    rle_run e (!j - !i) c;
    i := !j
  done;
  rle_finish e

let put_list w f xs =
  put_u32 w (List.length xs);
  List.iter (f w) xs

(* --- Reader ---------------------------------------------------------- *)

(* [version] is the container format version the data was written under
   (stamped by whoever decodes the container, e.g. Soc.restore); loaders
   branch on it to fill fields that older snapshots predate. Fresh readers
   start at the current version. *)
type reader = { src : string; mutable pos : int; mutable version : int }

let current_version = 2
let reader s = { src = s; pos = 0; version = current_version }
let reader_version r = r.version
let set_reader_version r v = r.version <- v

let need r n =
  if r.pos + n > String.length r.src then
    corrupt "truncated input at byte %d (want %d more)" r.pos n

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xffffffff in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v64 = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  let v = Int64.to_int v64 in
  if Int64.of_int v <> v64 then corrupt "64-bit value exceeds OCaml int range";
  v

let get_varint r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint exceeds OCaml int range";
    let b = get_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad boolean byte 0x%02x" v

let get_string r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Every check happens before the sink call it guards, so sinks may
   write unchecked: [fill off count c] and [blit src pos off len] always
   satisfy [0 <= off], [off + count <= len] and [pos + len <= |src|]. *)
let get_rle r ~len ~fill ~blit =
  let n = get_u32 r in
  if n <> len then corrupt "RLE block is %d bytes, destination holds %d" n len;
  let off = ref 0 in
  while !off < n do
    match get_u8 r with
    | 0 ->
        let count = get_u32 r in
        let c = Char.chr (get_u8 r) in
        if count > n - !off then corrupt "RLE run overflows block";
        fill !off count c;
        off := !off + count
    | 1 ->
        let k = get_u32 r in
        if k > n - !off then corrupt "RLE literal overflows block";
        need r k;
        blit r.src r.pos !off k;
        r.pos <- r.pos + k;
        off := !off + k
    | op -> corrupt "bad RLE opcode 0x%02x" op
  done

let get_bytes_rle_into r dst =
  get_rle r ~len:(Bytes.length dst)
    ~fill:(fun off count c -> Bytes.unsafe_fill dst off count c)
    ~blit:(fun src pos off len -> Bytes.unsafe_blit_string src pos dst off len)

let get_list r f =
  let n = get_u32 r in
  List.init n (fun _ -> f r)

let expect_end r =
  if r.pos <> String.length r.src then
    corrupt "trailing garbage: %d of %d bytes consumed" r.pos
      (String.length r.src)

(* --- Container ------------------------------------------------------- *)

module Container = struct
  let magic = "DIFTVPSN"

  (* Version history:
     1 — initial format (regs/tags/CSRs, peripherals, kernel).
     2 — privilege architecture: cpu section gains the current privilege
         level; plic section gains priorities, threshold, in-service and
         level-source state. Readers of a v1 snapshot fill the new fields
         with their reset defaults. *)
  let version = current_version
  let min_version = 1

  let encode_at ~version:v sections =
    if v < min_version || v > version then
      invalid_arg (Printf.sprintf "Container.encode_at: version %d" v);
    let w = writer () in
    Buffer.add_string w magic;
    put_u32 w v;
    put_list w
      (fun w (name, payload) ->
        put_string w name;
        put_string w payload)
      sections;
    contents w

  let encode sections = encode_at ~version sections

  let decode_versioned s =
    if String.length s < 8 || String.sub s 0 8 <> magic then
      corrupt "not a VP snapshot (bad magic)";
    let r = reader s in
    r.pos <- 8;
    let v = get_u32 r in
    if v < min_version || v > version then
      corrupt "unsupported snapshot version %d" v;
    let sections = get_list r (fun r ->
        let name = get_string r in
        let payload = get_string r in
        (name, payload))
    in
    expect_end r;
    (v, sections)

  let decode s = snd (decode_versioned s)
end
