(** Compilation of symbolic expressions to evaluation closures.

    [compile] resolves every entity reference to a direct field or
    coefficient access once; the resulting closure reads loop state
    (current cell, face, index values) from a mutable environment owned by
    the executor and performs no lookups or allocation in the inner loop.

    Recognized special symbols: [dt], [t]/[time], [pi], [x]/[y]/[z] (cell
    centroid), [VOLUME], [FACEAREA], [NORMAL_k] (outward normal component,
    sign-adjusted for the current cell). *)

exception Compile_error of string

type env = {
  mesh : Fvm.Mesh.t;
  dt : float ref;
  time : float ref;
  mutable cell : int;
  mutable cell2 : int;   (** neighbour across the current face; -1 = ghost *)
  mutable face : int;
  mutable nsign : float; (** +1 when [cell] owns the current face *)
  mutable ghost : (string -> int -> float) option;
    (** boundary ghost accessor: variable name -> component -> value *)
  ivals : (string * int ref) list; (** current 0-based index values *)
}

val make_env :
  mesh:Fvm.Mesh.t -> dt:float ref -> time:float ref ->
  index_names:string list -> env

val ival : env -> string -> int ref
(** The mutable cell holding an index's current value; raises
    {!Compile_error} for unknown indices. *)

type binding =
  | Bfield of Fvm.Field.t * (string * int * int) list
    (** field + per-index (name, 1-based lo, stride) layout *)
  | Bcoef_const of float
  | Bcoef_arr of float array * string * int
  | Bcoef_fn of (float array -> float)

type bindings = (string * binding) list

type compiled = env -> float

val compile : bindings -> Finch_symbolic.Expr.t -> compiled
(** Raises {!Compile_error} on unknown entities, unresolved operator
    calls, or misused indexed entities. *)

type cost = { flops : float; loads : int }

val cost : Finch_symbolic.Expr.t -> cost
(** Static per-evaluation FLOP and load-count estimate, consumed by the
    GPU roofline model. *)
