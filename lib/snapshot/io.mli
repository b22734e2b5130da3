(** Exception-safe file I/O for snapshot-family artifacts.

    Every binary artifact the platform persists — [.iftg] graph stores,
    DIFTVPSN snapshots, DIFTVPCP campaign checkpoints, BENCH_*.json
    reports, shrunk reproducers — goes through these two helpers so that

    - a raise mid-read never leaks the descriptor, and
    - a raise (or a SIGKILL) mid-write never leaves a truncated file
      under the final name: writes land in a temp file in the target's
      directory and are published with a single atomic [rename].

    A reader therefore only ever observes the old contents or the
    complete new contents, which is what lets a killed campaign resume
    from its last checkpoint. *)

val read_file : string -> string
(** Read a whole file (binary mode). The descriptor is closed even when
    the read raises; a missing or unreadable file raises [Sys_error], a
    file that shrinks while read raises [End_of_file]. *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path data] writes [data] to a fresh temp file
    next to [path], then renames it over [path]. On any failure the temp
    file is removed and [path] is untouched. *)
