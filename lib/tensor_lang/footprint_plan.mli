(** Compile-once footprint plans of a compute definition.

    A plan resolves every body and epilogue access (the accumulator read
    excluded, as in {!Compute.epilogue_accesses}) to slot-numbered index
    expressions and element sizes, so the per-tile footprint is an
    arithmetic evaluation over one array of tile sizes.  Slots number the
    spatial axes in declaration order, then the reduce axes.

    For tiles [tiles] (slot [s] ranging over [0, tiles.(s) - 1]) the results
    equal the interval analysis {!Access.footprint_elems} under that
    environment, access by access. *)

type t

(** Raises [Invalid_argument] on an access to an undeclared tensor or an
    index variable that is not an axis (neither passes {!Compute.v}). *)
val v : Compute.t -> t

(** Elements each access touches, in access order (body, then epilogue). *)
val input_elems : t -> int array -> (string * int) list

(** Bytes over all accesses: elements times the tensor's element size. *)
val input_bytes : t -> int array -> int
