(* Spans recorded by the benchmark around its calls into each layer.
   A span has a name (the layer's metric prefix), monotonic start and
   end, a parent and the unit it belongs to (run index, case block or
   tenant; -1 for none). Spans stay in memory until the run ends, when
   they are exported once as a Chrome trace. When the recorder is off,
   [span] only runs its body. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  unit_id : int;
  t0 : int;  (** ns, monotonic *)
  mutable t1 : int;
  mutable count : int;  (** folded calls; 1 for an ordinary span *)
}

type t = {
  on : bool;
  mutable spans : span list;  (** newest first *)
  by_id : (int, span) Hashtbl.t;
  mutable next : int;
}

let create ~on = { on; spans = []; by_id = Hashtbl.create 256; next = 0 }
let off = create ~on:false

let open_span t ~name ~parent ?(unit_id = -1) ?(t0 = Util.now_ns ()) () =
  if not t.on then -1
  else begin
    let s = { id = t.next; name; parent; unit_id; t0; t1 = t0; count = 1 } in
    t.next <- t.next + 1;
    t.spans <- s :: t.spans;
    Hashtbl.replace t.by_id s.id s;
    s.id
  end

let close_span t ?(t1 = Util.now_ns ()) id =
  match Hashtbl.find_opt t.by_id id with Some s -> s.t1 <- t1 | None -> ()

(* [span t ~name ~parent f] — [f] receives the new span's id so nested
   calls can name it as their parent. *)
let span t ~name ~parent ?unit_id f =
  let id = open_span t ~name ~parent ?unit_id () in
  Fun.protect ~finally:(fun () -> close_span t id) (fun () -> f id)

(* A pre-folded record: [count] calls of one kind taking [dur_ns] in all,
   laid out from [t0] (per-call boundaries are not kept). *)
let folded t ~name ~parent ~unit_id ~t0 ~dur_ns ~count =
  let id = open_span t ~name ~parent ~unit_id ~t0 () in
  match Hashtbl.find_opt t.by_id id with
  | Some s ->
      s.t1 <- t0 + dur_ns;
      s.count <- count
  | None -> ()

let spans t = List.rev t.spans
let dur s = s.t1 - s.t0

(* Self time of every span under [root] (inclusive), summed by name, in
   seconds: a span's duration minus its children's durations. *)
let self_times t ~root =
  let all = spans t in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) all;
  let acc = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace acc name (v +. Option.value (Hashtbl.find_opt acc name) ~default:0.0)
  in
  let rec walk s =
    let children = Hashtbl.find_all kids s.id in
    let covered = List.fold_left (fun a c -> a + dur c) 0 children in
    add s.name (float_of_int (dur s - covered) *. 1e-9);
    List.iter walk children
  in
  List.iter (fun s -> if s.id = root then walk s) all;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* Chrome trace through the repo's own exporter: one complete event per
   span, in microseconds from the first span, lane = depth. *)
let to_chrome t ~process_name =
  let all = spans t in
  let base = List.fold_left (fun a s -> min a s.t0) max_int all in
  let depth = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d =
        if s.parent < 0 then 0
        else 1 + Option.value (Hashtbl.find_opt depth s.parent) ~default:0
      in
      Hashtbl.replace depth s.id d)
    all;
  let events =
    List.map
      (fun s ->
        Stz_telemetry.Event.Span
          {
            name = s.name;
            cat = "szbench";
            lane = Hashtbl.find depth s.id;
            ts = (s.t0 - base) / 1000;
            dur = max 0 (dur s / 1000);
            args =
              [
                ("id", Stz_telemetry.Json.Int s.id);
                ("parent", Stz_telemetry.Json.Int s.parent);
                ("unit", Stz_telemetry.Json.Int s.unit_id);
                ("count", Stz_telemetry.Json.Int s.count);
              ];
          })
      all
  in
  Stz_telemetry.Export.chrome_string ~process_name events
