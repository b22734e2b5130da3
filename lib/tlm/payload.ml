type command = Read | Write
type response = Ok_resp | Address_error | Command_error

type t = {
  mutable cmd : command;
  mutable addr : int;
  data : Bytes.t;
  tags : Bytes.t;
  mutable resp : response;
}

let create ?(cmd = Read) ?(addr = 0) ~len ~default_tag () =
  {
    cmd;
    addr;
    data = Bytes.make len '\000';
    tags = Bytes.make len (Char.chr default_tag);
    resp = Ok_resp;
  }

let length p = Bytes.length p.data
let get_byte p i = Char.code (Bytes.get p.data i)
let set_byte p i v = Bytes.set p.data i (Char.chr (v land 0xff))
let get_tag p i = Char.code (Bytes.get p.tags i)
let set_tag p i t = Bytes.set p.tags i (Char.chr t)

(* --- Whole-buffer access ----------------------------------------------- *)

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Buffers of 1, 2 or 4 bytes (every CPU and DMA transaction) are read and
   written in one little-endian access; other lengths byte by byte. *)
let get_le b =
  match Bytes.length b with
  | 1 -> Char.code (Bytes.unsafe_get b 0)
  | 2 -> if Sys.big_endian then swap16 (get16u b 0) else get16u b 0
  | 4 ->
      let v = get32u b 0 in
      Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffffffff
  | len ->
      let v = ref 0 in
      for i = len - 1 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.unsafe_get b i)
      done;
      !v

let set_le b v =
  match Bytes.length b with
  | 1 -> Bytes.unsafe_set b 0 (Char.unsafe_chr (v land 0xff))
  | 2 ->
      let v = v land 0xffff in
      set16u b 0 (if Sys.big_endian then swap16 v else v)
  | 4 ->
      let v = Int32.of_int v in
      set32u b 0 (if Sys.big_endian then swap32 v else v)
  | len ->
      for i = 0 to len - 1 do
        Bytes.unsafe_set b i (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
      done

let get_word p = get_le p.data
let set_word p v = set_le p.data v
let packed_tags p = get_le p.tags

let set_all_tags p t =
  match Bytes.length p.tags with
  | 1 | 2 | 4 -> set_le p.tags (t * 0x1010101)
  | len -> Bytes.fill p.tags 0 len (Char.chr t)

let set_word_tagged p v t =
  set_word p v;
  set_all_tags p t

let word_tag lat p =
  let t0 = get_tag p 0 in
  let t = ref t0 in
  for i = 1 to length p - 1 do
    let x = get_tag p i in
    (* Equal tags join to themselves: no lookup. *)
    if x <> !t then t := Dift.Lattice.lub lat !t x
  done;
  !t

let is_read p = p.cmd = Read
let is_write p = p.cmd = Write
let ok p = p.resp = Ok_resp

let pp fmt p =
  let cmd = match p.cmd with Read -> "R" | Write -> "W" in
  let resp =
    match p.resp with
    | Ok_resp -> "ok"
    | Address_error -> "addr-err"
    | Command_error -> "cmd-err"
  in
  Format.fprintf fmt "[%s 0x%08x len=%d %s]" cmd p.addr (length p) resp
