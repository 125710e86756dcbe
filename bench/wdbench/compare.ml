(* [wdbench compare A.json B.json]: B against A, per workload and
   end-to-end metric, judged by the bounds in BENCHMARK.json.

   Each side is one wd-bench/2 document, or several joined by commas.
   With one document the samples of a metric are its repetitions; with
   several they are the documents' values, so the spread includes what
   moves between runs and not only within one.  A metric whose quartile
   spread (on either side) exceeds its bound is unresolved — the runs
   cannot tell a change of that size from noise — unless every sample of
   one side beats every sample of the other. *)

module Json = Wd_obs.Json
module Stats = Wd_eval.Stats

type bound = { name : string; higher_is_better : bool; bound : float }

let ( let* ) = Result.bind

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (Json.of_string s)
  | exception Sys_error e -> Error e

let list_of = function Some (Json.List l) -> l | _ -> []
let str_field k j = Option.bind (Json.member k j) Json.to_str
let num_field k j = Option.bind (Json.member k j) Json.to_float

let bounds_of_file path =
  let* doc = read_json path in
  Ok
    (List.filter_map
       (fun m ->
         match
           (str_field "name" m, str_field "better" m, num_field "bound" m)
         with
         | Some name, Some better, Some bound ->
           Some { name; higher_is_better = better = "higher"; bound }
         | _ -> None)
       (list_of (Json.member "end_to_end" doc)))

let workloads doc = list_of (Json.member "workloads" doc)

let find_workload name doc =
  List.find_opt (fun w -> str_field "name" w = Some name) (workloads doc)

let metric_of name metric doc =
  Option.bind (find_workload name doc) (fun w ->
      Option.bind (Json.member "end_to_end" w) (Json.member metric))

(* One side's samples of a metric on a workload. *)
let samples docs name metric =
  let floats l = List.filter_map Json.to_float l in
  Array.of_list
    (match docs with
    | [ doc ] ->
      Option.fold ~none:[]
        ~some:(fun m -> floats (list_of (Json.member "samples" m)))
        (metric_of name metric doc)
    | docs ->
      List.filter_map
        (fun d -> Option.bind (metric_of name metric d) (num_field "value"))
        docs)

let median xs = Stats.quantile xs 0.5

let spread xs =
  (Stats.quantile xs 0.75 -. Stats.quantile xs 0.25) /. Float.abs (median xs)

type verdict = Better | Worse | Within | Unresolved | Missing

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within-bound"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

(* The verdict and B's change against A, signed so that positive means
   worse. *)
let judge b ~a ~b:xb =
  if a = [||] || xb = [||] then (Missing, Float.nan)
  else
    let ma = median a and mb = median xb in
    let worse_by =
      (if b.higher_is_better then ma -. mb else mb -. ma) /. Float.abs ma
    in
    let beats x y = if b.higher_is_better then x > y else x < y in
    let all_beat xs ys =
      Array.for_all (fun x -> Array.for_all (beats x) ys) xs
    in
    if
      Float.max (spread a) (spread xb) > b.bound
      && not (all_beat a xb || all_beat xb a)
    then (Unresolved, worse_by)
    else if worse_by > b.bound then (Worse, worse_by)
    else if worse_by < -.b.bound then (Better, worse_by)
    else (Within, worse_by)

let read_side arg =
  List.fold_right
    (fun path acc ->
      let* docs = acc in
      let* doc = read_json path in
      Ok (doc :: docs))
    (String.split_on_char ',' arg)
    (Ok [])

(* Prints one row per workload and metric; returns how many are worse,
   unresolved or missing. *)
let run ~bounds_path a_arg b_arg =
  let* bounds = bounds_of_file bounds_path in
  let* a = read_side a_arg in
  let* b = read_side b_arg in
  Printf.printf "%-18s %-24s %13s %13s %9s %7s  %s\n" "workload" "metric"
    "A median" "B median" "worse by" "bound" "verdict";
  let names =
    List.filter_map (str_field "name") (workloads (List.hd a))
  in
  let bad = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun bd ->
          let sa = samples a name bd.name and sb = samples b name bd.name in
          let v, worse_by = judge bd ~a:sa ~b:sb in
          if v = Worse || v = Unresolved || v = Missing then incr bad;
          let med xs = if xs = [||] then Float.nan else median xs in
          Printf.printf "%-18s %-24s %13.6g %13.6g %+8.2f%% %6.1f%%  %s\n" name
            bd.name (med sa) (med sb) (worse_by *. 100.0) (bd.bound *. 100.0)
            (verdict_name v))
        bounds)
    names;
  Ok !bad
