(* Execution plans: the plain-data records the tuner enumerates, scores
   and memoizes.  See plan.mli. *)

type t = {
  target : Finch.Config.target;
  opt_level : Finch.Config.opt_level;
  eval_mode : Finch.Config.eval_mode;
  overlap : bool;
  chunk : int;
}

let default_gpu_chunk = 4

let make ?(opt_level = Finch.Config.O2) ?(eval_mode = Finch.Config.Closure)
    ?(overlap = false) ?(chunk = 1) target =
  if target = Finch.Config.Auto then
    invalid_arg "Plan.make: a plan's target must be concrete, not auto";
  if chunk < 1 then invalid_arg "Plan.make: chunk must be >= 1";
  { target; opt_level; eval_mode; overlap; chunk }

let name p =
  Printf.sprintf "%s opt=%s eval=%s %s chunk=%d"
    (Finch.Config.target_name p.target)
    (Finch.Config.opt_level_name p.opt_level)
    (Finch.Config.eval_mode_name p.eval_mode)
    (if p.overlap then "overlap" else "sync")
    p.chunk

let equal a b =
  Finch.Config.target_name a.target = Finch.Config.target_name b.target
  && a.opt_level = b.opt_level && a.eval_mode = b.eval_mode
  && a.overlap = b.overlap && a.chunk = b.chunk

let chunk_of_target = function
  | Finch.Config.Gpu { devices = 1; ranks = 1; _ } -> default_gpu_chunk
  | Finch.Config.Gpu _ | Finch.Config.Cpu _ | Finch.Config.Auto -> 1

let of_request (req : Finch.Solve_request.t) =
  if req.Finch.Solve_request.backend = Finch.Config.Auto then
    invalid_arg "Plan.of_request: backend auto encodes no concrete plan";
  {
    target = req.Finch.Solve_request.backend;
    opt_level = req.Finch.Solve_request.opt_level;
    eval_mode = req.Finch.Solve_request.eval_mode;
    overlap = req.Finch.Solve_request.overlap;
    chunk = chunk_of_target req.Finch.Solve_request.backend;
  }

let apply p (req : Finch.Solve_request.t) =
  {
    req with
    Finch.Solve_request.backend = p.target;
    opt_level = p.opt_level;
    eval_mode = p.eval_mode;
    overlap = p.overlap;
  }

let to_json p =
  Finch.Json.Obj
    [
      "backend", Finch.Json.Str (Finch.Config.target_name p.target);
      "opt", Finch.Json.Str (Finch.Config.opt_level_name p.opt_level);
      "eval", Finch.Json.Str (Finch.Config.eval_mode_name p.eval_mode);
      "overlap", Finch.Json.Bool p.overlap;
      "chunk", Finch.Json.Num (float_of_int p.chunk);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field k extract =
    match Finch.Json.member k j with
    | Some v -> extract v
    | None -> Error (Printf.sprintf "plan: missing member %S" k)
  in
  let* backend = field "backend" Finch.Json.to_str in
  let* target = Finch.Config.target_of_string backend in
  let* () =
    if target = Finch.Config.Auto then Error "plan: backend auto is not a plan"
    else Ok ()
  in
  let* opt = field "opt" Finch.Json.to_str in
  let* opt_level = Finch.Config.opt_level_of_string opt in
  let* ev = field "eval" Finch.Json.to_str in
  let* eval_mode = Finch.Config.eval_mode_of_string ev in
  let* overlap = field "overlap" Finch.Json.to_bool in
  let* chunk = field "chunk" Finch.Json.to_int in
  if chunk < 1 then Error "plan: chunk must be >= 1"
  else Ok { target; opt_level; eval_mode; overlap; chunk }
