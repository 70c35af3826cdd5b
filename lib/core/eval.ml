(* Compilation of symbolic expressions to evaluation closures.

   The code generation targets do not interpret the AST in the inner loop:
   [compile] resolves every entity reference to a direct field/coefficient
   access once, producing a closure tree whose evaluation does no lookups,
   no allocation and no matching beyond the structure of the expression
   itself.  The closure reads loop state (current cell, face, index values)
   from a mutable environment owned by the executor.

   [cost] statically estimates FLOPs and DRAM traffic per evaluation; the
   GPU simulator's roofline model consumes these numbers. *)

open Finch_symbolic

exception Compile_error of string

type env = {
  mesh : Fvm.Mesh.t;
  dt : float ref;
  time : float ref;
  (* loop state, written by the executor *)
  mutable cell : int;
  mutable cell2 : int;   (* neighbour across the current face; -1 = ghost *)
  mutable face : int;
  mutable nsign : float; (* +1 when [cell] owns the current face *)
  (* ghost accessor for boundary faces: variable name -> component -> value *)
  mutable ghost : (string -> int -> float) option;
  (* current value of each index variable, 0-based *)
  ivals : (string * int ref) list;
}

let make_env ~mesh ~dt ~time ~index_names =
  {
    mesh;
    dt;
    time;
    cell = 0;
    cell2 = -1;
    face = 0;
    nsign = 1.;
    ghost = None;
    ivals = List.map (fun n -> n, ref 0) index_names;
  }

let ival env name =
  match List.assoc_opt name env.ivals with
  | Some r -> r
  | None -> raise (Compile_error ("unknown index " ^ name))

(* What a compiled expression can reference. *)
type binding =
  | Bfield of Fvm.Field.t * (string * int * int) list
    (* field plus per-index (name, 1-based lo, stride) layout *)
  | Bcoef_const of float
  | Bcoef_arr of float array * string * int (* array, index name, 1-based lo *)
  | Bcoef_fn of (float array -> float)

type bindings = (string * binding) list

type compiled = env -> float

(* Component offset closure for a field reference with the given index
   refs. *)
let compile_comp env layout (idx_refs : Expr.index_ref list) : env -> int =
  if List.length layout <> List.length idx_refs then
    raise (Compile_error "index arity mismatch");
  let pieces =
    List.map2
      (fun (iname, lo, stride) iref ->
        match iref with
        | Expr.Iconst k ->
          let p = k - lo in
          fun (_ : env) -> p * stride
        | Expr.Ivar n ->
          if not (String.equal n iname) then
            (* referencing a different index than the layout position was
               declared with is allowed as long as it is a known index —
               e.g. Io[b] on a variable declared over [b]. The layout
               position name is informative only; the *position* governs
               the stride. *)
            ();
          let r = ival env n in
          fun (_ : env) -> !r * stride
        | Expr.Ishift (n, k) ->
          let r = ival env n in
          fun (_ : env) -> (!r + k) * stride)
      layout idx_refs
  in
  fun env -> List.fold_left (fun acc f -> acc + f env) 0 pieces

let rec compile (bindings : bindings) (e : Expr.t) : compiled =
  match e with
  | Expr.Num x -> fun _ -> x
  | Expr.Sym s -> compile_sym bindings s
  | Expr.Ref (name, idx_refs, side) -> compile_ref bindings name idx_refs side
  | Expr.Add es ->
    let fs = Array.of_list (List.map (compile bindings) es) in
    fun env ->
      let s = ref 0. in
      for i = 0 to Array.length fs - 1 do
        s := !s +. fs.(i) env
      done;
      !s
  | Expr.Mul es ->
    let fs = Array.of_list (List.map (compile bindings) es) in
    fun env ->
      let s = ref 1. in
      for i = 0 to Array.length fs - 1 do
        s := !s *. fs.(i) env
      done;
      !s
  | Expr.Pow (a, Expr.Num x) when Float.equal x (-1.) ->
    let fa = compile bindings a in
    fun env -> 1. /. fa env
  | Expr.Pow (a, Expr.Num x) when Float.equal x 2. ->
    let fa = compile bindings a in
    fun env ->
      let v = fa env in
      v *. v
  | Expr.Pow (a, b) ->
    let fa = compile bindings a and fb = compile bindings b in
    fun env -> Float.pow (fa env) (fb env)
  | Expr.Call (name, args) -> compile_call bindings name args
  | Expr.Cmp (op, a, b) ->
    let fa = compile bindings a and fb = compile bindings b in
    let test =
      match op with
      | Expr.Gt -> fun x y -> x > y
      | Expr.Ge -> fun x y -> x >= y
      | Expr.Lt -> fun x y -> x < y
      | Expr.Le -> fun x y -> x <= y
      | Expr.Eq -> fun x y -> Float.equal x y
      | Expr.Ne -> fun x y -> not (Float.equal x y)
    in
    fun env -> if test (fa env) (fb env) then 1. else 0.
  | Expr.Cond (c, t, el) ->
    let fc = compile bindings c
    and ft = compile bindings t
    and fe = compile bindings el in
    fun env -> if fc env <> 0. then ft env else fe env

and compile_sym bindings s =
  match s with
  | "dt" -> fun env -> !(env.dt)
  | "t" | "time" -> fun env -> !(env.time)
  | "pi" -> fun _ -> Float.pi
  | "x" -> fun env -> env.mesh.Fvm.Mesh.cell_centroid.(env.cell * env.mesh.Fvm.Mesh.dim)
  | "y" ->
    fun env ->
      env.mesh.Fvm.Mesh.cell_centroid.((env.cell * env.mesh.Fvm.Mesh.dim) + 1)
  | "z" ->
    fun env ->
      env.mesh.Fvm.Mesh.cell_centroid.((env.cell * env.mesh.Fvm.Mesh.dim) + 2)
  | "VOLUME" -> fun env -> env.mesh.Fvm.Mesh.cell_volume.(env.cell)
  | "FACEAREA" -> fun env -> env.mesh.Fvm.Mesh.face_area.(env.face)
  | s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" ->
    let k = int_of_string (String.sub s 7 (String.length s - 7)) - 1 in
    fun env ->
      env.nsign *. env.mesh.Fvm.Mesh.face_normal.((env.face * env.mesh.Fvm.Mesh.dim) + k)
  | s -> (
    match List.assoc_opt s bindings with
    | Some (Bcoef_const v) -> fun _ -> v
    | Some (Bcoef_fn f) ->
      fun env ->
        let d = env.mesh.Fvm.Mesh.dim in
        f (Array.init d (fun k -> env.mesh.Fvm.Mesh.cell_centroid.((env.cell * d) + k)))
    | Some (Bcoef_arr _) ->
      raise (Compile_error (s ^ " is an indexed coefficient; write " ^ s ^ "[i]"))
    | Some (Bfield _) ->
      raise (Compile_error (s ^ " is an indexed variable; write " ^ s ^ "[...]"))
    | None -> raise (Compile_error ("unknown symbol " ^ s)))

and compile_ref bindings name idx_refs side =
  match List.assoc_opt name bindings with
  | Some (Bfield (field, layout)) ->
    (* fail fast: arity errors are compile-time errors, not lazy runtime
       surprises inside the first evaluation *)
    if not (idx_refs = [] && layout = [])
       && List.length layout <> List.length idx_refs
    then
      raise
        (Compile_error
           (Printf.sprintf "%s expects %d indices, given %d" name
              (List.length layout) (List.length idx_refs)));
    (* Index-variable cells live in the runtime env, so the component
       closure is built lazily against the env of the first call and
       memoized (each compiled program runs against a single env). Scalar
       variables (no indices) read component 0. *)
    let cache : (env * (env -> int)) option ref = ref None in
    let comp env =
      match !cache with
      | Some (e, f) when e == env -> f env
      | _ ->
        let f =
          if idx_refs = [] && layout = [] then fun (_ : env) -> 0
          else compile_comp env layout idx_refs
        in
        cache := Some (env, f);
        f env
    in
    (match side with
     | Expr.Here | Expr.Cell1 ->
       fun env -> Fvm.Field.get field env.cell (comp env)
     | Expr.Cell2 ->
       fun env ->
         let c = comp env in
         if env.cell2 >= 0 then Fvm.Field.get field env.cell2 c
         else (
           match env.ghost with
           | Some g -> g name c
           | None ->
             raise
               (Compile_error
                  ("boundary face reached with no ghost accessor for " ^ name))))
  | Some (Bcoef_arr (arr, iname, lo)) -> (
    match idx_refs with
    | [ Expr.Ivar n ] ->
      ignore iname;
      let cache : (env * int ref) option ref = ref None in
      fun env ->
        let r =
          match !cache with
          | Some (e, r) when e == env -> r
          | _ ->
            let r = ival env n in
            cache := Some (env, r);
            r
        in
        arr.(!r)
    | [ Expr.Iconst k ] ->
      let v = arr.(k - lo) in
      fun _ -> v
    | _ -> raise (Compile_error ("coefficient " ^ name ^ " expects one index")))
  | Some (Bcoef_const v) -> fun _ -> v
  | Some (Bcoef_fn f) ->
    fun env ->
      let d = env.mesh.Fvm.Mesh.dim in
      f (Array.init d (fun k -> env.mesh.Fvm.Mesh.cell_centroid.((env.cell * d) + k)))
  | None -> raise (Compile_error ("unknown entity " ^ name))

and compile_call bindings name args =
  let unary f =
    match args with
    | [ a ] ->
      let fa = compile bindings a in
      fun env -> f (fa env)
    | _ -> raise (Compile_error (name ^ " expects one argument"))
  in
  match name with
  | "sin" -> unary sin
  | "cos" -> unary cos
  | "tan" -> unary tan
  | "exp" -> unary exp
  | "log" -> unary log
  | "sqrt" -> unary sqrt
  | "abs" -> unary Float.abs
  | "sinh" -> unary sinh
  | "cosh" -> unary cosh
  | "tanh" -> unary tanh
  | "min" | "max" -> (
    match args with
    | [ a; b ] ->
      let fa = compile bindings a and fb = compile bindings b in
      let f = if name = "min" then Float.min else Float.max in
      fun env -> f (fa env) (fb env)
    | _ -> raise (Compile_error (name ^ " expects two arguments")))
  | _ ->
    raise
      (Compile_error
         (Printf.sprintf
            "unresolved call %s/%d (operators must be expanded before compilation)"
            name (List.length args)))

(* ------------------------------------------------------------------ *)
(* Static cost estimation for the roofline model.                      *)
(* ------------------------------------------------------------------ *)

type cost = { flops : float; loads : int }

let cost e =
  let flops = ref 0. and loads = ref 0 in
  let count _ n =
    (match n with
     | Expr.Add es -> flops := !flops +. float_of_int (List.length es - 1)
     | Expr.Mul es -> flops := !flops +. float_of_int (List.length es - 1)
     | Expr.Pow _ -> flops := !flops +. 4.
     | Expr.Call (("min" | "max" | "abs"), _) -> flops := !flops +. 1.
     | Expr.Call _ -> flops := !flops +. 8. (* transcendental *)
     | Expr.Cmp _ -> flops := !flops +. 1.
     | Expr.Ref _ -> incr loads
     | Expr.Sym s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" ->
       incr loads
     | Expr.Sym _ | Expr.Num _ | Expr.Cond _ -> ());
    ()
  in
  Expr.fold count () e;
  { flops = !flops; loads = !loads }
