(* Sparse RAM: each plane (value bytes, tag bytes) is an array of
   fixed-size pages. A page starts as a process-wide read-only page filled
   with one byte and is copied on its first write that changes it, so a
   fresh RAM costs a page directory, not its size. *)

let page_bits = 14
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* One shared page per fill byte, built on first use. Slots are atomics
   so domains building SoCs in parallel agree on a single page per byte;
   nobody ever writes into a shared page. *)
let shared_slots = Array.init 256 (fun _ -> Atomic.make None)

let shared b =
  let slot = shared_slots.(b) in
  match Atomic.get slot with
  | Some pg -> pg
  | None -> (
      let pg = Bytes.make page_size (Char.chr b) in
      if Atomic.compare_and_set slot None (Some pg) then pg
      else match Atomic.get slot with Some pg -> pg | None -> assert false)

type plane = {
  size : int;
  pages : Bytes.t array;
  (* '\001' where [pages.(i)] is this plane's private copy; otherwise the
     page is shared and uniform (every byte equals its first). *)
  owned : Bytes.t;
}

type t = { data : plane; tags : plane }

let make_plane ~size b =
  let n = (size + page_mask) lsr page_bits in
  { size; pages = Array.make n (shared b); owned = Bytes.make n '\000' }

let create ~size ~default_tag =
  if size < 0 then invalid_arg "Ram.create: negative size";
  if default_tag < 0 || default_tag > 0xff then
    invalid_arg "Ram.create: tag does not fit a byte";
  { data = make_plane ~size 0; tags = make_plane ~size default_tag }

let size t = t.data.size
let data t = t.data
let tags t = t.tags

let private_pages t =
  let count p =
    let n = ref 0 in
    Bytes.iter (fun c -> if c <> '\000' then incr n) p.owned;
    !n
  in
  count t.data + count t.tags

(* --- Access ------------------------------------------------------------ *)

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"

let oob () = invalid_arg "Ram: access out of bounds"
let bad_width w = invalid_arg (Printf.sprintf "Ram: unsupported access width %d" w)

let[@inline] check p off len =
  if off < 0 || len < 0 || off > p.size - len then oob ()

(* In-page little-endian access; the caller guarantees [o + width <=
   page_size]. *)
let[@inline] read pg o width =
  match width with
  | 1 -> Char.code (Bytes.unsafe_get pg o)
  | 2 -> if Sys.big_endian then swap16 (get16u pg o) else get16u pg o
  | 4 ->
      let v = get32u pg o in
      Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffffffff
  | w -> bad_width w

let[@inline] write pg o width v =
  match width with
  | 1 -> Bytes.unsafe_set pg o (Char.unsafe_chr (v land 0xff))
  | 2 ->
      let v = v land 0xffff in
      set16u pg o (if Sys.big_endian then swap16 v else v)
  | 4 ->
      let v = Int32.of_int v in
      set32u pg o (if Sys.big_endian then swap32 v else v)
  | w -> bad_width w

let own p i =
  let pg = Bytes.copy (Array.unsafe_get p.pages i) in
  Array.unsafe_set p.pages i pg;
  Bytes.unsafe_set p.owned i '\001';
  pg

let[@inline] writable p i =
  if Bytes.unsafe_get p.owned i <> '\000' then Array.unsafe_get p.pages i
  else own p i

let share p i b =
  Array.unsafe_set p.pages i (shared b);
  Bytes.unsafe_set p.owned i '\000'

let byte_at p a =
  Char.code
    (Bytes.unsafe_get (Array.unsafe_get p.pages (a lsr page_bits)) (a land page_mask))

(* An access that straddles a page boundary goes byte by byte. *)
let get_straddling p ~width off =
  if width <> 2 && width <> 4 then bad_width width;
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor byte_at p (off + i)
  done;
  !v

let get p ~width off =
  check p off width;
  let o = off land page_mask in
  if o <= page_size - width then
    read (Array.unsafe_get p.pages (off lsr page_bits)) o width
  else get_straddling p ~width off

let rec set p ~width off v =
  check p off width;
  let i = off lsr page_bits and o = off land page_mask in
  if o > page_size - width then begin
    if width <> 2 && width <> 4 then bad_width width;
    for k = 0 to width - 1 do
      set p ~width:1 (off + k) (v lsr (8 * k))
    done
  end
  else if Bytes.unsafe_get p.owned i <> '\000' then
    write (Array.unsafe_get p.pages i) o width v
  else if
    (* A store that leaves a shared page unchanged (zeros into the zero
       page, the default tag into its page) keeps it shared. *)
    read (Array.unsafe_get p.pages i) o width
    <> v land ((1 lsl (8 * width)) - 1)
  then write (own p i) o width v

(* Apply [f i o k n] to each page piece of [off .. off+len-1]: page [i],
   in-page offset [o], [k] bytes into the range, [n] bytes long. *)
let iter_pieces off len f =
  let pos = ref off and stop = off + len in
  while !pos < stop do
    let i = !pos lsr page_bits and o = !pos land page_mask in
    let n = min (stop - !pos) (page_size - o) in
    f i o (!pos - off) n;
    pos := !pos + n
  done

let fill p ~off ~len b =
  check p off len;
  if b < 0 || b > 0xff then invalid_arg "Ram.fill: value does not fit a byte";
  iter_pieces off len (fun i o _ n ->
      if o = 0 && n = min page_size (p.size - (i lsl page_bits)) then share p i b
      else if
        Bytes.unsafe_get p.owned i <> '\000'
        || Char.code (Bytes.unsafe_get (Array.unsafe_get p.pages i) 0) <> b
      then Bytes.unsafe_fill (writable p i) o n (Char.unsafe_chr b))

let blit_in src soff p off len =
  check p off len;
  if soff < 0 || soff > Bytes.length src - len then oob ();
  iter_pieces off len (fun i o k n ->
      Bytes.unsafe_blit src (soff + k) (writable p i) o n)

let blit_out p off dst doff len =
  check p off len;
  if doff < 0 || doff > Bytes.length dst - len then oob ();
  iter_pieces off len (fun i o k n ->
      Bytes.unsafe_blit (Array.unsafe_get p.pages i) o dst (doff + k) n)

(* Maximal runs in address order. A shared page is one run, never
   scanned; runs continue across page boundaries. *)
let iter_runs p f =
  let cur = ref (-1) and start = ref 0 in
  let emit pos b =
    if b <> !cur then begin
      if !cur >= 0 then f (pos - !start) (Char.unsafe_chr !cur);
      cur := b;
      start := pos
    end
  in
  Array.iteri
    (fun i pg ->
      let base = i lsl page_bits in
      if Bytes.unsafe_get p.owned i = '\000' then
        emit base (Char.code (Bytes.unsafe_get pg 0))
      else begin
        let lim = min page_size (p.size - base) in
        let o = ref 0 in
        while !o < lim do
          let c = Bytes.unsafe_get pg !o in
          let j = ref (!o + 1) in
          while !j < lim && Bytes.unsafe_get pg !j = c do
            incr j
          done;
          emit (base + !o) (Char.code c);
          o := !j
        done
      end)
    p.pages;
  if !cur >= 0 then f (p.size - !start) (Char.unsafe_chr !cur)

(* --- Snapshot ------------------------------------------------------------ *)

(* Byte-identical to [Codec.put_bytes_rle] over the flat plane. *)
let save_plane p w =
  let e = Snapshot.Codec.rle_start w ~len:p.size in
  iter_runs p (Snapshot.Codec.rle_run e);
  Snapshot.Codec.rle_finish e

(* The decoder validates every run and literal before handing it over, so
   no input reaches an unchecked page write out of range; a run covering
   a whole page makes (or keeps) it shared. *)
let restore_plane p r =
  Snapshot.Codec.get_rle r ~len:p.size
    ~fill:(fun off len c -> fill p ~off ~len (Char.code c))
    ~blit:(fun src pos off len ->
      check p off len;
      if pos < 0 || pos > String.length src - len then oob ();
      iter_pieces off len (fun i o k n ->
          Bytes.unsafe_blit_string src (pos + k) (writable p i) o n))

let save t w =
  save_plane t.data w;
  save_plane t.tags w

let restore t r =
  restore_plane t.data r;
  restore_plane t.tags r
