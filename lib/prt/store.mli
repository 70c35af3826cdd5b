(** Small file-system helpers shared by the persistent caches (compiled
    native kernels, memoized tuner decisions). *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode [0o755]); an
    existing directory, or one created concurrently, is not an error. *)

val read_file : string -> string
(** The whole contents of a file, read in binary mode.  Raises
    [Sys_error] when the file cannot be opened. *)

val write_file : string -> string -> unit
(** [write_file path s] replaces the contents of [path] with [s], written
    in binary mode. *)
