(* Outside-in probes of layers the workloads cannot time directly:
   - runtime callbacks, by replaying recorded runs through
     [Runtime.run ~env_wrap] with every callback timed;
   - the machine model, by replaying a seeded address/branch stream
     through a fresh [Hierarchy] (the interpreter calls the hierarchy
     directly, so this is the only way to split vm from machine);
   - the fork pool's round trip, with [Parallel.map] on no-op tasks. *)

module S = Stabilizer
module H = Stz_machine.Hierarchy
module Interp = Stz_vm.Interp

(* ------------------------------------------------------------------ *)
(* Runtime callbacks                                                   *)
(* ------------------------------------------------------------------ *)

type kind = { mutable calls : int; mutable ns : int }

type replay = {
  mutable runs : int;
  mutable plain_ns : int;  (** unwrapped [Runtime.run] time *)
  mutable wrapped_ns : int;  (** the same runs with callbacks timed *)
  mutable instrs : int;
  mutable minor_words : float;  (** allocated by the unwrapped runs *)
  mutable cold_start_ms : float list;  (** [Runtime.run] entry to first entry trap *)
  mutable epochs : int;
  mutable relocations : int;
  mutable counters : H.counters list;  (** modelled counters of the replayed runs *)
  enter : kind;  (** [enter_function]: trap, relocation, re-randomization *)
  frame : kind;  (** [frame_push] / [frame_pop]: stack pads *)
  heap : kind;  (** [malloc] / [free]: shuffled heap *)
  indirect : kind;  (** [global_addr] / [call_prologue]: relocation tables *)
  mutable mismatches : string list;
}

let fresh () =
  let k () = { calls = 0; ns = 0 } in
  {
    runs = 0;
    plain_ns = 0;
    wrapped_ns = 0;
    instrs = 0;
    minor_words = 0.0;
    cold_start_ms = [];
    epochs = 0;
    relocations = 0;
    counters = [];
    enter = k ();
    frame = k ();
    heap = k ();
    indirect = k ();
    mismatches = [];
  }

let callbacks r = [ ("enter", r.enter); ("frame", r.frame); ("heap", r.heap); ("indirect", r.indirect) ]
let callback_ns r = List.fold_left (fun a (_, k) -> a + k.ns) 0 (callbacks r)
let callback_calls r = List.fold_left (fun a (_, k) -> a + k.calls) 0 (callbacks r)

(* Runtime share of a run's host time, measured on the wrapped runs. *)
let runtime_share r =
  if r.wrapped_ns = 0 then 0.0 else float_of_int (callback_ns r) /. float_of_int r.wrapped_ns

let per_call_ns k = if k.calls = 0 then 0.0 else float_of_int k.ns /. float_of_int k.calls

(* Written out per callback rather than through a shared timing closure,
   so the wrapper itself allocates nothing per call. *)
let wrap r ~first (env : Interp.env) : Interp.env =
  let enter = r.enter and frame = r.frame and heap = r.heap and ind = r.indirect in
  let stop k t0 =
    k.ns <- k.ns + (Util.now_ns () - t0);
    k.calls <- k.calls + 1
  in
  {
    env with
    enter_function =
      (fun ~fid ->
        let t0 = Util.now_ns () in
        if !first = 0 then first := t0;
        let v = env.enter_function ~fid in
        stop enter t0;
        v);
    frame_push =
      (fun ~fid ->
        let t0 = Util.now_ns () in
        let v = env.frame_push ~fid in
        stop frame t0;
        v);
    frame_pop =
      (fun ~fid ->
        let t0 = Util.now_ns () in
        env.frame_pop ~fid;
        stop frame t0);
    global_addr =
      (fun ~caller ~gid ->
        let t0 = Util.now_ns () in
        let v = env.global_addr ~caller ~gid in
        stop ind t0;
        v);
    call_prologue =
      (fun ~caller ~callee ->
        let t0 = Util.now_ns () in
        env.call_prologue ~caller ~callee;
        stop ind t0);
    malloc =
      (fun ~size ->
        let t0 = Util.now_ns () in
        let v = env.malloc ~size in
        stop heap t0;
        v);
    free =
      (fun ~addr ->
        let t0 = Util.now_ns () in
        env.free ~addr;
        stop heap t0);
  }

(* Replay one run twice — plain, then wrapped — and check it reproduces
   [expect] (cycles, return value) when given. Callback totals of the
   wrapped run go to the trace as one folded record per kind. *)
let replay_run r tr ~parent ~unit_id ?limits ?expect ~config ~seed p ~args =
  let run ?env_wrap () = S.Runtime.run ?limits ?env_wrap ~config ~seed p ~args in
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  match run () with
  | exception S.Runtime.Trap _ -> r.mismatches <- "replay trapped" :: r.mismatches
  | res ->
      let t1 = Util.now_ns () in
      r.minor_words <- r.minor_words +. (Gc.minor_words () -. w0);
      (match expect with
      | Some (cycles, ret)
        when cycles <> res.S.Runtime.cycles || ret <> res.S.Runtime.return_value ->
          r.mismatches <-
            Printf.sprintf "replay of seed %Ld: cycles %d ret %d, recorded %d / %d" seed
              res.S.Runtime.cycles res.S.Runtime.return_value cycles ret
            :: r.mismatches
      | _ -> ());
      let before = List.map (fun (n, k) -> (n, k.calls, k.ns)) (callbacks r) in
      let first = ref 0 in
      let t2 = Util.now_ns () in
      ignore (run ~env_wrap:(wrap r ~first) ());
      let t3 = Util.now_ns () in
      r.runs <- r.runs + 1;
      r.plain_ns <- r.plain_ns + (t1 - t0);
      r.wrapped_ns <- r.wrapped_ns + (t3 - t2);
      r.instrs <- r.instrs + res.S.Runtime.counters.H.instructions;
      r.epochs <- r.epochs + res.S.Runtime.epochs;
      r.relocations <- r.relocations + res.S.Runtime.relocations;
      r.counters <- res.S.Runtime.counters :: r.counters;
      if !first > 0 then
        r.cold_start_ms <- (float_of_int (!first - t2) *. 1e-6) :: r.cold_start_ms;
      let rid = Tracer.open_span tr ~name:"replay" ~parent ~unit_id ~t0:t2 () in
      Tracer.close_span tr ~t1:t3 rid;
      List.iter2
        (fun (n, k) (_, calls0, ns0) ->
          Tracer.folded tr ~name:("runtime." ^ n) ~parent:rid ~unit_id ~t0:t2
            ~dur_ns:(k.ns - ns0) ~count:(k.calls - calls0))
        (callbacks r) before

(* The vm and runtime metrics of a replay. [vm.self_share] and
   [runtime.self_share] are filled in by the workload, which knows the
   run time's share of its whole host time. *)
let runtime_metrics r =
  let instrs = float_of_int (max 1 r.instrs) in
  let share = runtime_share r in
  let vm_ns = float_of_int r.plain_ns *. (1.0 -. share) in
  let runs = float_of_int (max 1 r.runs) in
  [
    ("vm.ns_per_instr", vm_ns /. instrs);
    ("vm.minor_words_per_instr", r.minor_words /. instrs);
    ("vm.cold_start_ms", Util.median r.cold_start_ms);
    ("runtime.enter_ns", per_call_ns r.enter);
    ("runtime.frame_ns", per_call_ns r.frame);
    ("runtime.heap_ns", per_call_ns r.heap);
    ("runtime.indirect_ns", per_call_ns r.indirect);
    ("runtime.calls_per_kinstr", float_of_int (callback_calls r) /. instrs *. 1000.0);
    ("runtime.epochs_per_run", float_of_int r.epochs /. runs);
    ("runtime.relocations_per_run", float_of_int r.relocations /. runs);
  ]

(* ------------------------------------------------------------------ *)
(* Modelled machine statistics                                         *)
(* ------------------------------------------------------------------ *)

let machine_model (cs : H.counters list) =
  let tot = List.fold_left H.counters_add H.counters_zero cs in
  let ki = float_of_int (max 1 tot.H.instructions) /. 1000.0 in
  let per_ki n = float_of_int n /. ki in
  [
    ("machine.cpi", float_of_int tot.H.cycles /. float_of_int (max 1 tot.H.instructions));
    ("machine.l1i_mpki", per_ki tot.H.l1i_misses);
    ("machine.l1d_mpki", per_ki tot.H.l1d_misses);
    ("machine.l2_mpki", per_ki tot.H.l2_misses);
    ("machine.dtlb_mpki", per_ki tot.H.dtlb_misses);
    ( "machine.mispredict_rate",
      float_of_int tot.H.branch_mispredictions /. float_of_int (max 1 tot.H.branches) );
  ]

(* ------------------------------------------------------------------ *)
(* Machine replay probe                                                *)
(* ------------------------------------------------------------------ *)

let probe_calls = 400_000

(* ns per call of [f] over a precomputed stream, on a hierarchy warmed by
   one untimed pass; median of three timed passes. *)
let per_call_stream f stream =
  let m = H.create () in
  Array.iter (f m) stream;
  let pass () =
    let t0 = Util.now_ns () in
    Array.iter (f m) stream;
    float_of_int (Util.now_ns () - t0) /. float_of_int (Array.length stream)
  in
  Util.median [ pass (); pass (); pass () ]

(* Host ns per [data] / [fetch_cross] / [branch] call at an L1-resident
   working set (4 KiB, 64 branch sites) and an L3-spilling one (8 MiB,
   64 Ki branch sites). *)
let machine_probe ~seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  let stream n gen = Array.init n (fun _ -> gen ()) in
  let data ws =
    per_call_stream
      (fun m a -> ignore (H.data m a))
      (stream probe_calls (fun () -> 0x1000_0000 + (8 * Random.State.int st (ws / 8))))
  in
  let fetch ws =
    per_call_stream
      (fun m pc -> H.fetch_cross m pc)
      (stream probe_calls (fun () -> 0x40_0000 + (64 * Random.State.int st (ws / 64))))
  in
  let branch sites =
    let bias = Array.init sites (fun _ -> Random.State.float st 1.0) in
    per_call_stream
      (fun m (pc, taken) -> ignore (H.branch m ~pc ~taken))
      (stream probe_calls (fun () ->
           let i = Random.State.int st sites in
           (0x40_0000 + (4 * i), Random.State.float st 1.0 < bias.(i))))
  in
  let small = 4 * 1024 and big = 8 * 1024 * 1024 in
  [
    ("machine.data_ns", data small);
    ("machine.data_ns_spill", data big);
    ("machine.fetch_ns", fetch small);
    ("machine.fetch_ns_spill", fetch big);
    ("machine.branch_ns", branch 64);
    ("machine.branch_ns_spill", branch 65536);
  ]

(* ------------------------------------------------------------------ *)
(* Fork-pool round trip                                                *)
(* ------------------------------------------------------------------ *)

(* A case-sized payload: what a fuzz worker ships back per case. *)
let payload i =
  {
    Stz_store.Fuzzlog.index = i;
    case_seed = Int64.of_int (i * 7919);
    verdict = Stz_store.Fuzzlog.Clean;
    oracle = "";
    detail = "";
    repro = "";
    repro_instrs = 0;
    shrink_steps = 0;
    result = i * 31;
    cycles = i * 1009;
  }

(* µs per task of [Parallel.map] over no-op tasks on one forked worker
   (the watchdog forces the fork, as the fuzz gauntlet's does). *)
let parallel_roundtrip_us () =
  let n = 2000 in
  let once () =
    let _, s =
      Util.timed (fun () -> S.Parallel.map ~watchdog:30.0 ~jobs:1 ~f:payload n)
    in
    s /. float_of_int n *. 1e6
  in
  Util.median [ once (); once (); once () ]
