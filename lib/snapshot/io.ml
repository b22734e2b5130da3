(* Plain system calls, not an in_channel: a channel's 64 KiB buffer
   lives until the GC finalises it and is charged to the GC meanwhile, so
   a loop over many small files (graph-store ingest) spent its time in
   collections. Errors surface as [Sys_error], as with [open_in]. *)
let read_file path =
  let sys_error e = raise (Sys_error (path ^ ": " ^ Unix.error_message e)) in
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (e, _, _) -> sys_error e
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        let n = (Unix.fstat fd).Unix.st_size in
        let b = Bytes.create n in
        let rec fill off =
          if off < n then
            match Unix.read fd b off (n - off) with
            | 0 -> raise End_of_file
            | k -> fill (off + k)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
        in
        fill 0;
        Bytes.unsafe_to_string b
      with Unix.Unix_error (e, _, _) -> sys_error e)

(* The temp file lives in the destination directory: [Sys.rename] must
   not cross a filesystem boundary to stay atomic. *)
let write_file_atomic path data =
  let tmp =
    Filename.temp_file
      ~temp_dir:(Filename.dirname path)
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc data);
      Sys.rename tmp path)
