module M = Stz_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let small_cache () =
  M.Cache.create { M.Cache.name = "t"; sets = 4; ways = 2; line_bits = 6 }

let cache_hit_after_fill () =
  let c = small_cache () in
  check_bool "first is miss" false (M.Cache.access c 0x1000);
  check_bool "second is hit" true (M.Cache.access c 0x1000);
  check_bool "same line hit" true (M.Cache.access c 0x103F);
  check_bool "next line miss" false (M.Cache.access c 0x1040)

let cache_lru_eviction () =
  let c = small_cache () in
  (* Three lines mapping to set 0 in a 2-way cache: 256-byte set span. *)
  let a = 0x0000 and b = 0x0100 and d = 0x0200 in
  ignore (M.Cache.access c a);
  ignore (M.Cache.access c b);
  ignore (M.Cache.access c d);
  (* a was least recently used: evicted. *)
  check_bool "a evicted" false (M.Cache.probe c a);
  check_bool "b resident" true (M.Cache.probe c b);
  check_bool "d resident" true (M.Cache.probe c d);
  (* Touch b, then insert a new line: d should now be the victim. *)
  ignore (M.Cache.access c b);
  ignore (M.Cache.access c 0x0300);
  check_bool "b kept (recently used)" true (M.Cache.probe c b);
  check_bool "d evicted" false (M.Cache.probe c d)

let cache_sets_disjoint () =
  let c = small_cache () in
  (* Lines in different sets never evict each other. *)
  for s = 0 to 3 do
    ignore (M.Cache.access c (s * 64));
    ignore (M.Cache.access c ((s * 64) + 0x100))
  done;
  for s = 0 to 3 do
    check_bool "still resident" true (M.Cache.probe c (s * 64))
  done

let cache_counters () =
  let c = small_cache () in
  ignore (M.Cache.access c 0);
  ignore (M.Cache.access c 0);
  ignore (M.Cache.access c 64);
  check_int "accesses" 3 (M.Cache.accesses c);
  check_int "misses" 2 (M.Cache.misses c)

let cache_probe_no_state_change () =
  let c = small_cache () in
  check_bool "probe empty" false (M.Cache.probe c 0);
  check_int "no access recorded" 0 (M.Cache.accesses c);
  check_bool "still miss" false (M.Cache.access c 0)

let cache_flush_and_reset () =
  let c = small_cache () in
  ignore (M.Cache.access c 0);
  M.Cache.flush c;
  check_bool "flushed" false (M.Cache.probe c 0);
  check_int "stats kept" 1 (M.Cache.accesses c);
  M.Cache.reset c;
  check_int "stats cleared" 0 (M.Cache.accesses c)

let cache_index_bits () =
  let c = M.Cache.create { M.Cache.name = "t"; sets = 64; ways = 2; line_bits = 6 } in
  Alcotest.(check (pair int int)) "bits 6..11" (6, 11) (M.Cache.index_bits c)

let cache_bad_config () =
  Alcotest.check_raises "non-pow2 sets"
    (Invalid_argument "Cache.create: sets must be a positive power of two")
    (fun () -> ignore (M.Cache.create { M.Cache.name = "t"; sets = 3; ways = 1; line_bits = 6 }))

(* Reference model: a cache as a list of (set, tag) with exact LRU,
   checked against the array implementation on random address streams. *)
let cache_matches_reference_model =
  QCheck.Test.make ~name:"cache agrees with reference LRU model" ~count:50
    QCheck.(pair small_int (list (int_bound 0xFFFF)))
    (fun (seed, addrs) ->
      let sets = 4 and ways = 2 and line_bits = 4 in
      let c = M.Cache.create { M.Cache.name = "ref"; sets; ways; line_bits } in
      (* reference: per set, most-recent-first list of tags *)
      let model = Array.make sets [] in
      let ok = ref true in
      let rng = Stz_prng.Xorshift.create ~seed:(Int64.of_int (seed + 1)) in
      let stream =
        addrs @ List.init 200 (fun _ -> Stz_prng.Xorshift.next_int rng 0x10000)
      in
      List.iter
        (fun addr ->
          let set = (addr lsr line_bits) land (sets - 1) in
          let tag = addr lsr line_bits in
          let hit_model = List.mem tag model.(set) in
          let hit_impl = M.Cache.access c addr in
          if hit_model <> hit_impl then ok := false;
          let without = List.filter (fun t -> t <> tag) model.(set) in
          let updated = tag :: without in
          model.(set) <-
            (if List.length updated > ways then
               List.filteri (fun i _ -> i < ways) updated
             else updated))
        stream;
      !ok)

(* The same list-based LRU model over the geometries the machine uses
   (ways 1/2/4/16, 1-1024 sets, 64 B lines and 4 KiB pages), extended
   with the conflict recorder: each resident line remembers the owner
   that installed it, and evicting a valid line installed by another
   owner counts one (victim, evictor) event. [Cache] and [Tlb] must
   agree with it access by access, in their counters and in
   [attrib_view], with the recorder dark or armed and across flushes. *)
type structure = {
  s_access : int -> bool;
  s_accesses : unit -> int;
  s_misses : unit -> int;
  s_flush : unit -> unit;
  s_arm : funcs:int -> unit;
  s_owner : int -> unit;
  s_view : unit -> M.Cache.attrib_view option;
}

let cache_structure cfg =
  let c = M.Cache.create cfg in
  {
    s_access = M.Cache.access c;
    s_accesses = (fun () -> M.Cache.accesses c);
    s_misses = (fun () -> M.Cache.misses c);
    s_flush = (fun () -> M.Cache.flush c);
    s_arm = M.Cache.arm_attrib c;
    s_owner = M.Cache.set_attrib_owner c;
    s_view = (fun () -> M.Cache.attrib_view c);
  }

let tlb_structure { M.Cache.name; sets; ways; line_bits } =
  let t = M.Tlb.create { M.Tlb.name; entries = sets * ways; ways; page_bits = line_bits } in
  {
    s_access = M.Tlb.access t;
    s_accesses = (fun () -> M.Tlb.accesses t);
    s_misses = (fun () -> M.Tlb.misses t);
    s_flush = (fun () -> M.Tlb.flush t);
    s_arm = M.Tlb.arm_attrib t;
    s_owner = M.Tlb.set_attrib_owner t;
    s_view = (fun () -> M.Tlb.attrib_view t);
  }

let lru_reference_property ~name make =
  QCheck.Test.make ~name ~count:150
    QCheck.(quad (int_bound 3) (int_bound 10) bool (pair bool small_int))
    (fun (wi, log_sets, pages, (armed, seed)) ->
      let ways = [| 1; 2; 4; 16 |].(wi) and sets = 1 lsl log_sets in
      let line_bits = if pages then 12 else 6 in
      let s = make { M.Cache.name = "ref"; sets; ways; line_bits } in
      let funcs = 3 in
      if armed then s.s_arm ~funcs;
      let lines = Array.make sets [] (* (tag, owner), most recent first *) in
      let set_accesses = Array.make sets 0 and set_misses = Array.make sets 0 in
      let evictions = Array.make (funcs * funcs) 0 in
      let owner = ref (-1) and accesses = ref 0 and misses = ref 0 in
      let rng = Stz_prng.Xorshift.create ~seed:(Int64.of_int (seed + 1)) in
      let rand n = Stz_prng.Xorshift.next_int rng n in
      (* Mostly a few hot sets, each cycling through twice its ways of
         tags so it both hits and evicts; otherwise any line of a span
         twice the structure's capacity. *)
      let hot = Stdlib.min sets 4 in
      let line () =
        if rand 4 = 0 then rand (2 * sets * ways)
        else (rand hot * (sets / hot)) + (rand (2 * ways) * sets)
      in
      let ok = ref true in
      for _ = 1 to 600 do
        match rand 64 with
        | 0 ->
            s.s_flush ();
            Array.fill lines 0 sets []
        | 1 | 2 ->
            owner := rand (funcs + 1) - 1;
            s.s_owner !owner
        | _ ->
            let addr = (line () lsl line_bits) + rand (1 lsl line_bits) in
            let set = (addr lsr line_bits) land (sets - 1) in
            let tag = addr lsr line_bits in
            incr accesses;
            set_accesses.(set) <- set_accesses.(set) + 1;
            let hit = List.mem_assoc tag lines.(set) in
            if hit then
              lines.(set) <-
                (tag, List.assoc tag lines.(set)) :: List.remove_assoc tag lines.(set)
            else begin
              incr misses;
              set_misses.(set) <- set_misses.(set) + 1;
              let kept =
                if List.length lines.(set) < ways then lines.(set)
                else begin
                  let victim_owner = snd (List.nth lines.(set) (ways - 1)) in
                  if victim_owner >= 0 && !owner >= 0 && victim_owner <> !owner
                  then begin
                    let k = (victim_owner * funcs) + !owner in
                    evictions.(k) <- evictions.(k) + 1
                  end;
                  List.filteri (fun i _ -> i < ways - 1) lines.(set)
                end
              in
              lines.(set) <- (tag, !owner) :: kept
            end;
            if s.s_access addr <> hit then ok := false
      done;
      let view =
        if armed then
          Some { M.Cache.funcs; set_accesses; set_misses; evictions }
        else None
      in
      !ok
      && s.s_accesses () = !accesses
      && s.s_misses () = !misses
      && s.s_view () = view)

let cache_matches_attributing_model =
  lru_reference_property ~name:"cache agrees with attributing LRU model"
    cache_structure

let tlb_matches_attributing_model =
  lru_reference_property ~name:"tlb agrees with attributing LRU model"
    tlb_structure

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let tlb_page_granularity () =
  let t = M.Tlb.create { M.Tlb.name = "t"; entries = 8; ways = 2; page_bits = 12 } in
  check_bool "first access misses" false (M.Tlb.access t 0x5000);
  check_bool "same page hits" true (M.Tlb.access t 0x5FFF);
  check_bool "next page misses" false (M.Tlb.access t 0x6000);
  check_int "misses" 2 (M.Tlb.misses t)

let tlb_capacity () =
  let t = M.Tlb.create { M.Tlb.name = "t"; entries = 4; ways = 4; page_bits = 12 } in
  (* Touch 5 pages in the same set (fully associative here): one must go. *)
  for p = 0 to 4 do
    ignore (M.Tlb.access t (p * 4096))
  done;
  check_bool "first page evicted" false (M.Tlb.access t 0)

(* ------------------------------------------------------------------ *)
(* Branch predictor                                                    *)
(* ------------------------------------------------------------------ *)

let branch_learns_bias () =
  let b = M.Branch.create ~entries:16 () in
  (* Always-taken branch: after warmup, always predicted. *)
  for _ = 1 to 4 do
    ignore (M.Branch.predict_and_update b ~pc:0x40 ~taken:true)
  done;
  let before = M.Branch.mispredictions b in
  for _ = 1 to 100 do
    ignore (M.Branch.predict_and_update b ~pc:0x40 ~taken:true)
  done;
  check_int "no further mispredictions" before (M.Branch.mispredictions b)

let branch_aliasing_interferes () =
  let b = M.Branch.create ~entries:16 () in
  (* Two branches 16 entries apart alias: (pc >> 2) mod 16 equal. *)
  let pc1 = 0x100 and pc2 = 0x100 + (16 * 4) in
  check_int "alias confirmed" (M.Branch.index_of b pc1) (M.Branch.index_of b pc2);
  (* Opposite-biased aliasing branches destroy each other's state. *)
  for _ = 1 to 200 do
    ignore (M.Branch.predict_and_update b ~pc:pc1 ~taken:true);
    ignore (M.Branch.predict_and_update b ~pc:pc2 ~taken:false)
  done;
  let aliased = M.Branch.mispredictions b in
  (* Same workload without aliasing barely mispredicts. *)
  let b2 = M.Branch.create ~entries:16 () in
  for _ = 1 to 200 do
    ignore (M.Branch.predict_and_update b2 ~pc:0x100 ~taken:true);
    ignore (M.Branch.predict_and_update b2 ~pc:0x104 ~taken:false)
  done;
  let clean = M.Branch.mispredictions b2 in
  check_bool
    (Printf.sprintf "aliasing hurts (%d vs %d)" aliased clean)
    true
    (aliased > 10 * Stdlib.max 1 clean)

let gshare_learns_alternating () =
  (* A strictly alternating branch defeats a bimodal 2-bit counter but
     is perfectly predictable once history indexes the table. *)
  let run kind =
    let b = M.Branch.create ~entries:256 ~kind () in
    for i = 1 to 400 do
      ignore (M.Branch.predict_and_update b ~pc:0x80 ~taken:(i land 1 = 0))
    done;
    M.Branch.mispredictions b
  in
  let bimodal = run M.Branch.Bimodal in
  let gshare = run (M.Branch.Gshare 8) in
  check_bool
    (Printf.sprintf "gshare (%d) beats bimodal (%d) on alternation" gshare bimodal)
    true
    (gshare < bimodal / 4)

let gshare_history_moves_index () =
  let b = M.Branch.create ~entries:256 ~kind:(M.Branch.Gshare 8) () in
  let i0 = M.Branch.index_of b 0x80 in
  ignore (M.Branch.predict_and_update b ~pc:0x80 ~taken:true);
  let i1 = M.Branch.index_of b 0x80 in
  check_bool "history changes the slot" true (i0 <> i1)

(* The slot-introspection surface the attribution plane keys on: the
   documented index functions, exactly. *)
let bimodal_index_formula () =
  let b = M.Branch.create ~entries:16 () in
  List.iter
    (fun pc -> check_int "(pc lsr 2) land mask" ((pc lsr 2) land 15) (M.Branch.index_of b pc))
    [ 0x0; 0x40; 0x44; 0x7c; 0x1004; 0xdeadbeef ];
  (* Instruction words 4 bytes apart get distinct slots until the table
     wraps: entries * 4 bytes of code per alias-free window. *)
  check_int "wraps at entries*4" (M.Branch.index_of b 0x40)
    (M.Branch.index_of b (0x40 + (16 * 4)));
  check_bool "adjacent words distinct" true
    (M.Branch.index_of b 0x40 <> M.Branch.index_of b 0x44)

let gshare_index_formula () =
  let bits = 4 in
  let b = M.Branch.create ~entries:16 ~kind:(M.Branch.Gshare bits) () in
  (* Fresh predictor: history = 0, so gshare degenerates to bimodal. *)
  check_int "zero history = bimodal" ((0x7c lsr 2) land 15)
    (M.Branch.index_of b 0x7c);
  (* Train a known history and check the XOR fold directly. *)
  List.iter
    (fun taken -> ignore (M.Branch.predict_and_update b ~pc:0x40 ~taken))
    [ true; false; true; true ];
  (* Outcomes shift into the history LSB: T,F,T,T -> 0b1011. *)
  let h = 0b1011 in
  let expect pc = ((pc lsr 2) lxor (h land ((1 lsl bits) - 1))) land 15 in
  List.iter
    (fun pc ->
      check_int (Printf.sprintf "xor fold at %x" pc) (expect pc)
        (M.Branch.index_of b pc))
    [ 0x0; 0x40; 0x44; 0x1004 ]

let index_of_respects_mask () =
  List.iter
    (fun entries ->
      let b = M.Branch.create ~entries () in
      for pc = 0 to 1024 do
        let i = M.Branch.index_of b pc in
        check_bool "in range" true (i >= 0 && i < entries)
      done)
    [ 1; 2; 16; 256 ]

let branch_counts () =
  let b = M.Branch.create ~entries:16 () in
  for _ = 1 to 10 do
    ignore (M.Branch.predict_and_update b ~pc:0 ~taken:true)
  done;
  check_int "branches" 10 (M.Branch.branches b);
  M.Branch.reset b;
  check_int "reset" 0 (M.Branch.branches b)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)
(* ------------------------------------------------------------------ *)

let hierarchy_fetch_locality () =
  let h = M.Hierarchy.create () in
  let cold = M.Hierarchy.fetch h 0x400000 in
  let warm = M.Hierarchy.fetch h 0x400004 in
  check_bool "cold fetch expensive" true (cold > warm);
  check_int "same-line fetch is base cost" (M.Cost.default.M.Cost.base_cycles) warm

let hierarchy_data_levels () =
  let h = M.Hierarchy.create () in
  let miss = M.Hierarchy.data h 0x10000000 in
  let hit = M.Hierarchy.data h 0x10000000 in
  check_bool "miss costs more than hit" true (miss > hit)

let hierarchy_branch_penalty () =
  let h = M.Hierarchy.create () in
  (* Train, then a surprise branch costs the misprediction penalty. *)
  for _ = 1 to 8 do
    ignore (M.Hierarchy.branch h ~pc:0x40 ~taken:true)
  done;
  let penalty = M.Hierarchy.branch h ~pc:0x40 ~taken:false in
  check_int "penalty" M.Cost.default.M.Cost.branch_misprediction penalty

let hierarchy_counters_consistent () =
  let h = M.Hierarchy.create () in
  ignore (M.Hierarchy.fetch h 0x400000);
  ignore (M.Hierarchy.data h 0x10000000);
  ignore (M.Hierarchy.branch h ~pc:0x40 ~taken:true);
  let c = M.Hierarchy.counters h in
  check_int "instructions" 1 c.M.Hierarchy.instructions;
  check_int "branches" 1 c.M.Hierarchy.branches;
  check_bool "cycles positive" true (c.M.Hierarchy.cycles > 0);
  check_bool "cycles match accessor" true (c.M.Hierarchy.cycles = M.Hierarchy.cycles h)

let hierarchy_flush_forces_misses () =
  let h = M.Hierarchy.create () in
  ignore (M.Hierarchy.data h 0x20000000);
  ignore (M.Hierarchy.data h 0x20000000);
  let c1 = M.Hierarchy.counters h in
  M.Hierarchy.flush h;
  ignore (M.Hierarchy.data h 0x20000000);
  let c2 = M.Hierarchy.counters h in
  check_bool "miss after flush" true (c2.M.Hierarchy.l1d_misses > c1.M.Hierarchy.l1d_misses)

let hierarchy_charge_and_reset () =
  let h = M.Hierarchy.create () in
  M.Hierarchy.charge h 123;
  check_int "charged" 123 (M.Hierarchy.cycles h);
  M.Hierarchy.reset h;
  check_int "reset" 0 (M.Hierarchy.cycles h)

(* The fetch-line memo must follow the configured L1I geometry. A
   hardcoded [lsr 6] used to make any non-default line size mischarge:
   with 32-byte lines, 0x...00 and 0x...20 are different lines and the
   second fetch must walk the I-side again. *)
let hierarchy_fetch_line_follows_config () =
  let l1i = { M.Cache.name = "L1I"; sets = 64; ways = 2; line_bits = 5 } in
  let h = M.Hierarchy.create ~l1i () in
  ignore (M.Hierarchy.fetch h 0x400000);
  ignore (M.Hierarchy.fetch h 0x400020);
  let c = M.Hierarchy.counters h in
  check_int "two 32-byte lines, two L1I misses" 2 c.M.Hierarchy.l1i_misses;
  (* And the converse direction: with 256-byte lines the second fetch
     is the same line, so no new I-side access happens at all. *)
  let l1i = { M.Cache.name = "L1I"; sets = 16; ways = 2; line_bits = 8 } in
  let h = M.Hierarchy.create ~l1i () in
  ignore (M.Hierarchy.fetch h 0x400000);
  ignore (M.Hierarchy.fetch h 0x4000C0);
  let c = M.Hierarchy.counters h in
  check_int "one 256-byte line, one L1I miss" 1 c.M.Hierarchy.l1i_misses;
  check_int "itlb touched once" 1 c.M.Hierarchy.itlb_misses

(* The decomposed hot path (inline line check + fetch_cross +
   charge_batch) must account exactly like per-instruction fetch. *)
let hierarchy_batched_fetch_identity () =
  let pcs = Array.init 200 (fun i -> 0x400000 + (4 * i * (1 + (i mod 7)))) in
  let h1 = M.Hierarchy.create () in
  Array.iter (fun pc -> ignore (M.Hierarchy.fetch h1 pc)) pcs;
  let h2 = M.Hierarchy.create () in
  let shift = M.Hierarchy.fetch_shift h2 in
  let memo = M.Hierarchy.fetch_line_memo h2 in
  let base = M.Cost.default.M.Cost.base_cycles in
  let pending = ref 0 in
  Array.iter
    (fun pc ->
      if pc lsr shift <> !memo then M.Hierarchy.fetch_cross h2 pc;
      incr pending)
    pcs;
  M.Hierarchy.charge_batch h2 ~instructions:!pending ~cycles:(!pending * base);
  let c1 = M.Hierarchy.counters h1 and c2 = M.Hierarchy.counters h2 in
  List.iter2
    (fun (k, v1) (_, v2) -> check_int k v1 v2)
    (M.Hierarchy.counters_fields c1)
    (M.Hierarchy.counters_fields c2)

(* Consecutive same-line data accesses take the memoized fast path;
   every exported counter must stay identical to the full walk, and a
   line change or flush must end the memo's validity. *)
let hierarchy_data_memo_transparent () =
  let addrs =
    Array.init 300 (fun i ->
        0x20000000 + (8 * (i mod 3)) + (64 * (i mod 11)) + (4096 * (i mod 5)))
  in
  let h = M.Hierarchy.create () in
  Array.iter (fun a -> ignore (M.Hierarchy.data h a)) addrs;
  let c = M.Hierarchy.counters h in
  (* Reference machine: identical geometry but a nonzero L1D hit cost,
     which disables the memo (a repeated hit would owe cycles). Every
     duplicate access then really walks and hits — the miss counters
     must come out identical, proving the memo only skips guaranteed
     hits and never perturbs any replacement decision. *)
  let cost = { M.Cost.default with M.Cost.l1_hit = 1 } in
  let h' = M.Hierarchy.create ~cost () in
  Array.iter (fun a -> ignore (M.Hierarchy.data h' a)) addrs;
  let c' = M.Hierarchy.counters h' in
  check_int "l1d misses identical without memo" c'.M.Hierarchy.l1d_misses
    c.M.Hierarchy.l1d_misses;
  check_int "l2 misses identical without memo" c'.M.Hierarchy.l2_misses
    c.M.Hierarchy.l2_misses;
  check_int "l3 misses identical without memo" c'.M.Hierarchy.l3_misses
    c.M.Hierarchy.l3_misses;
  check_int "dtlb misses identical without memo" c'.M.Hierarchy.dtlb_misses
    c.M.Hierarchy.dtlb_misses;
  (* Same-line repeats cost zero and add no misses. *)
  let h2 = M.Hierarchy.create () in
  let first = M.Hierarchy.data h2 0x30000000 in
  let repeat = M.Hierarchy.data h2 0x30000008 in
  check_bool "first access walks" true (first > 0);
  check_int "same-line repeat is free" 0 repeat;
  let before = M.Hierarchy.counters h2 in
  ignore (M.Hierarchy.data h2 0x30000010);
  let after = M.Hierarchy.counters h2 in
  check_int "no new l1d miss on memoized line" before.M.Hierarchy.l1d_misses
    after.M.Hierarchy.l1d_misses;
  M.Hierarchy.flush h2;
  check_bool "flush clears the data memo" true
    (M.Hierarchy.data h2 0x30000008 > 0)

(* Reset means fresh: dirty a structure with one random stream, reset
   it, then replay a second stream. Every per-access answer and the
   final counters must equal a freshly created structure's. A reset
   that zeroed the LRU clock but kept the stamps used to evict newly
   installed lines before stale invalid ways. The geometries are tiny
   so that streams revisit sets. *)
let reset_structure_is_fresh =
  let tiny_cache name = { M.Cache.name; sets = 2; ways = 2; line_bits = 4 } in
  let tiny_tlb name = { M.Tlb.name; entries = 4; ways = 2; page_bits = 6 } in
  let trial which =
    match which with
    | 0 ->
        let c = M.Cache.create (tiny_cache "c") in
        ( (fun x -> if M.Cache.access c x then 1 else 0),
          (fun () -> M.Cache.reset c),
          fun () -> [ M.Cache.accesses c; M.Cache.misses c ] )
    | 1 ->
        let t = M.Tlb.create (tiny_tlb "t") in
        ( (fun x -> if M.Tlb.access t x then 1 else 0),
          (fun () -> M.Tlb.reset t),
          fun () -> [ M.Tlb.accesses t; M.Tlb.misses t ] )
    | _ ->
        let h =
          M.Hierarchy.create ~l1i:(tiny_cache "L1I") ~l1d:(tiny_cache "L1D")
            ~l2:{ (tiny_cache "L2") with M.Cache.ways = 4 }
            ~l3:{ (tiny_cache "L3") with M.Cache.sets = 4; ways = 4 }
            ~itlb:(tiny_tlb "ITLB") ~dtlb:(tiny_tlb "DTLB") ~predictor_entries:4 ()
        in
        ( (fun x ->
            match x land 3 with
            | 0 -> M.Hierarchy.fetch h (x lsr 2)
            | 1 -> M.Hierarchy.branch h ~pc:(x lsr 2) ~taken:(x land 4 = 0)
            | _ -> M.Hierarchy.data h (x lsr 2)),
          (fun () -> M.Hierarchy.reset h),
          fun () -> List.map snd (M.Hierarchy.counters_fields (M.Hierarchy.counters h)) )
  in
  QCheck.Test.make ~name:"reset cache, tlb and hierarchy replay like fresh ones"
    ~count:300
    QCheck.(
      triple (int_bound 2)
        (list_of_size Gen.(0 -- 60) (int_bound 0x3FF))
        (list_of_size Gen.(1 -- 60) (int_bound 0x3FF)))
    (fun (which, dirty, replay) ->
      let fresh_step, _, fresh_counters = trial which in
      let reused_step, reset, reused_counters = trial which in
      List.iter (fun x -> ignore (reused_step x)) dirty;
      reset ();
      let a = List.map fresh_step replay and b = List.map reused_step replay in
      a = b && fresh_counters () = reused_counters ())

let () =
  Alcotest.run "machine"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick cache_hit_after_fill;
          Alcotest.test_case "lru eviction" `Quick cache_lru_eviction;
          Alcotest.test_case "sets disjoint" `Quick cache_sets_disjoint;
          Alcotest.test_case "counters" `Quick cache_counters;
          Alcotest.test_case "probe is pure" `Quick cache_probe_no_state_change;
          Alcotest.test_case "flush/reset" `Quick cache_flush_and_reset;
          Alcotest.test_case "index bits" `Quick cache_index_bits;
          Alcotest.test_case "bad config" `Quick cache_bad_config;
          QCheck_alcotest.to_alcotest cache_matches_reference_model;
          QCheck_alcotest.to_alcotest cache_matches_attributing_model;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "page granularity" `Quick tlb_page_granularity;
          Alcotest.test_case "capacity" `Quick tlb_capacity;
          QCheck_alcotest.to_alcotest tlb_matches_attributing_model;
        ] );
      ( "branch",
        [
          Alcotest.test_case "learns bias" `Quick branch_learns_bias;
          Alcotest.test_case "aliasing interferes" `Quick branch_aliasing_interferes;
          Alcotest.test_case "counts" `Quick branch_counts;
          Alcotest.test_case "gshare alternation" `Quick gshare_learns_alternating;
          Alcotest.test_case "gshare history index" `Quick gshare_history_moves_index;
          Alcotest.test_case "bimodal index formula" `Quick bimodal_index_formula;
          Alcotest.test_case "gshare index formula" `Quick gshare_index_formula;
          Alcotest.test_case "index respects mask" `Quick index_of_respects_mask;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "fetch locality" `Quick hierarchy_fetch_locality;
          Alcotest.test_case "data levels" `Quick hierarchy_data_levels;
          Alcotest.test_case "branch penalty" `Quick hierarchy_branch_penalty;
          Alcotest.test_case "counters" `Quick hierarchy_counters_consistent;
          Alcotest.test_case "flush forces misses" `Quick hierarchy_flush_forces_misses;
          Alcotest.test_case "charge/reset" `Quick hierarchy_charge_and_reset;
          Alcotest.test_case "fetch line follows config" `Quick
            hierarchy_fetch_line_follows_config;
          Alcotest.test_case "batched fetch identity" `Quick
            hierarchy_batched_fetch_identity;
          Alcotest.test_case "data memo transparent" `Quick
            hierarchy_data_memo_transparent;
          QCheck_alcotest.to_alcotest reset_structure_is_fresh;
        ] );
    ]
