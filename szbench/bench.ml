(* What every workload hands back to [Main], and the measuring loop. *)

(* One repetition of a workload's unit of work, from set-up to verdict. *)
type rep = {
  setup_s : float;
  verdict_s : float;
  units : int;  (** simulated runs (fuzz: cases) completed *)
  sim_cycles : float;
  unit_ms : float list;  (** host time per completed unit *)
  failed : int;  (** censored runs, failed cases, nonzero tenant exits *)
  digest : string;  (** output digest; identical inputs must repeat it *)
}

type check = { what : string; ok : bool; detail : string }

type result = {
  reps : rep list;  (** untraced *)
  max_rss_kb : int;
  checks : check list;
  layers : (string * float) list;  (** traced run only *)
  notes : string list;  (** why a layer metric does not apply *)
}

let check what ok detail = { what; ok; detail }

(* A campaign's completed runs with their records, in run order. *)
let completed (c : Stabilizer.Supervisor.campaign) =
  List.filter_map
    (fun (r : Stabilizer.Supervisor.record) ->
      match r.Stabilizer.Supervisor.outcome with
      | Stabilizer.Supervisor.Done d -> Some (r, d)
      | _ -> None)
    c.Stabilizer.Supervisor.records

(* Run [f rep_index] repeatedly for about [seconds], each time from a
   settled heap: stop before a repetition that would, at the mean pace
   so far, end past the limit, but never before three. Returns every
   repetition reduced by [light], and the last one whole: keeping only
   one whole repetition stops the heap, and with it the peak RSS of
   every worker forked from this process, from growing with the number
   of repetitions. *)
let repeat ~seconds ~light f =
  let t0 = Util.now_ns () in
  let rec go acc last i =
    let elapsed = Util.secs_since t0 in
    let pace = if i = 0 then 0.0 else elapsed /. float_of_int i in
    match last with
    | Some whole when i >= 3 && elapsed +. pace > seconds -> (List.rev acc, whole)
    | _ ->
        Gc.full_major ();
        let r = f i in
        go (light r :: acc) (Some r) (i + 1)
  in
  go [] None 0

(* The untraced repetitions, and with the recorder on, traced ones:
   each half of the time. [go tracer rep_index] runs one repetition. *)
let phases ~seconds ~tr ~light go =
  if not tr.Tracer.on then (repeat ~seconds ~light (go Tracer.off), None)
  else
    let untraced = repeat ~seconds:(seconds /. 2.0) ~light (go Tracer.off) in
    (untraced, Some (repeat ~seconds:(seconds /. 2.0) ~light (go tr)))

let overhead_share ~untraced ~traced =
  let med reps = Util.median (List.map (fun r -> r.verdict_s) reps) in
  ("trace.overhead_share", (med traced -. med untraced) /. med untraced)

(* Set-up is short next to the work it prepares, so each repetition
   sets up [setup_tries] times and keeps the median time (and the last
   result). *)
let setup_tries = 5

let setup_median f =
  let rec go k acc =
    let v, s = Util.timed f in
    if k <= 1 then (v, Util.median (s :: acc)) else go (k - 1) (s :: acc)
  in
  go setup_tries []

(* Every repetition of identical inputs must produce the first one's
   output. *)
let reps_agree name reps =
  match reps with
  | [] -> check (name ^ ".repeatable") false "no repetitions"
  | r0 :: rest ->
      let bad = List.filter (fun r -> r.digest <> r0.digest) rest in
      check (name ^ ".repeatable") (bad = [])
        (Printf.sprintf "%d/%d repetitions match the first" (List.length rest - List.length bad)
           (List.length rest))

(* The traced run's share of the decomposition: every layer's self time
   plus [other], which together sum to the traced verdict time. *)
let layer_names =
  [ "workloads"; "opt"; "validate"; "vm"; "runtime"; "supervisor"; "store"; "parallel"; "stats"; "daemon" ]

let self_metrics ~verdict_s parts =
  let get n = Option.value (List.assoc_opt n parts) ~default:0.0 in
  let named = List.map (fun n -> ("self_s." ^ n, get n)) layer_names in
  let other = verdict_s -. List.fold_left (fun a (_, v) -> a +. v) 0.0 named in
  named @ [ ("self_s.other", other); ("trace.verdict_s", verdict_s) ]

(* Mean of each named part over several traced repetitions. *)
let mean_parts (per_rep : (string * float) list list) =
  let n = float_of_int (max 1 (List.length per_rep)) in
  let acc = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)))
    per_rep;
  Hashtbl.fold (fun k v l -> (k, v /. n) :: l) acc [] |> List.sort compare

(* Metrics shared by every workload's traced run that this workload
   does not exercise: reported as 0 with the reason. *)
let not_applicable reasons =
  List.concat_map (fun (names, why) -> List.map (fun n -> ((n, 0.0), n ^ ": " ^ why)) names) reasons
  |> List.split
