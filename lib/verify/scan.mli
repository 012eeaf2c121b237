(** Shared string utilities for the kernel-text passes. *)

(** Source lines with 1-based line numbers. *)
val lines : string -> (int * string) list

val substring_index : string -> string -> int option
val contains : string -> string -> bool

(** First decimal literal at or after a position. *)
val int_from : string -> int -> int option

(** First decimal literal after the first occurrence of [marker]. *)
val int_after : string -> string -> int option

(** All decimal literals between the end of [marker] and the next [stop]
    character (e.g. the dims of ["dim3 grid(8, 8, 1);"]). *)
val ints_between : string -> marker:string -> stop:char -> int list
