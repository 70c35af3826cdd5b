(* Order statistics over host-wall samples. *)

(* Linear interpolation between closest ranks (numpy's default), so p50
   of an even-sized sample is the mean of the two middle values. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. (r -. float_of_int lo) *. (a.(hi) -. a.(lo))

let median xs = percentile 50. xs

let sum xs = List.fold_left ( +. ) 0. xs

(* Geometric mean of positive rates; each entry counts equally. *)
let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* Total length of the union of [t0, t1] intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> total, Some (a, b)
        | Some (ca, cb) ->
          if a > cb then total +. (cb -. ca), Some (a, b)
          else total, Some (ca, Float.max cb b))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Interquartile mean: the mean of the middle half of the sorted values
   (a quarter, rounded down, dropped at each end).  It ignores the slow
   bursts a shared host injects into up to a quarter of the samples, and
   unlike a median it does not jump between the two speeds such a host
   alternates between. *)
let iqm xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let k = n / 4 in
  let mid = Array.sub a k (n - (2 * k)) in
  Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

(* [typed_percentile p samples]: samples are (type, value) pairs; each
   type's interquartile mean over its repetitions counts once, so a
   percentile of a mix of very different request types does not jump
   between types as the sample count changes. *)
let typed_percentile p samples =
  let by_type = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace by_type k (v :: Option.value ~default:[] (Hashtbl.find_opt by_type k)))
    samples;
  percentile p (Hashtbl.fold (fun _ vs acc -> iqm vs :: acc) by_type [])
