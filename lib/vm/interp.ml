module Hierarchy = Stz_machine.Hierarchy

type code_view = { block_addrs : int array; branch_flips : bool array }

type env = {
  machine : Hierarchy.t;
  enter_function : fid:int -> code_view;
  frame_push : fid:int -> int;
  frame_pop : fid:int -> unit;
  global_addr : caller:int -> gid:int -> int;
  malloc : size:int -> int;
  free : addr:int -> unit;
  call_prologue : caller:int -> callee:int -> unit;
}

type limits = { max_instructions : int; max_call_depth : int }

let default_limits = { max_instructions = 200_000_000; max_call_depth = 10_000 }

let limits ?(max_instructions = default_limits.max_instructions)
    ?(max_call_depth = default_limits.max_call_depth) () =
  { max_instructions; max_call_depth }

exception Fuel_exhausted
exception Call_depth_exceeded

(* Shift amounts clamp into [0, 62]: [land 63] keeps the encodable
   range (negative amounts wrap like hardware shifters), then 63
   clamps to 62 so [lsl]/[asr] stay in OCaml's defined range. The
   clamp must not drop low bits — an earlier [land 62] silently
   turned every odd shift (x lsl 1!) into the next-lower even one.
   The comparison is spelled out because [Stdlib.min] is polymorphic,
   an out-of-line call to the generic compare. *)
let shift_amount b =
  let s = b land 63 in
  if s > 62 then 62 else s

let eval_binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then 0 else a / b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl shift_amount b
  | Ir.Shr -> a asr shift_amount b

let eval_cmp op a b =
  let r =
    match op with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Lt -> a < b
    | Ir.Le -> a <= b
    | Ir.Gt -> a > b
    | Ir.Ge -> a >= b
  in
  if r then 1 else 0

(* Pre-decoded instruction forms: operand shapes ([Reg] vs [Imm]) are
   resolved once per function per run instead of re-matched on every
   executed instruction, and all-immediate ALU ops are folded to a
   constant move (the cycle charge stays — the simulated machine still
   executes them). Cycles live in the block's segment table, not in the
   instructions. Decoding is purely shape-driven: it never looks at
   addresses, so one decode per function is valid across mid-run
   re-randomizations, which only move code and flip branches. *)
type dinstr =
  | DBinRR of Ir.binop * int * int * int (* op, d, ra, rb *)
  | DBinRI of Ir.binop * int * int * int (* op, d, ra, imm *)
  | DBinIR of Ir.binop * int * int * int (* op, d, imm, rb *)
  | DCmpRR of Ir.cmp * int * int * int
  | DCmpRI of Ir.cmp * int * int * int
  | DCmpIR of Ir.cmp * int * int * int
  | DMovR of int * int
  | DMovI of int * int
  | DLoad of int * int * int
  | DStoreR of int * int * int
  | DStoreI of int * int * int
  | DFrame of int * int
  | DGlobal of int * int
  | DMallocR of int * int
  | DMallocK of int * int (* d, clamped size *)
  | DFree of int
  | DCall of int * Ir.operand array * int
  | DRetR of int
  | DRetI of int
  | DBr of int
  | DBrcR of int * int * int
  | DBrcK of bool * int * int (* constant condition; predictor still runs *)

let decode_instr instr =
  match instr with
  | Ir.Bin (op, d, a, b) -> (
      match (a, b) with
      | Ir.Reg ra, Ir.Reg rb -> DBinRR (op, d, ra, rb)
      | Ir.Reg ra, Ir.Imm ib -> DBinRI (op, d, ra, ib)
      | Ir.Imm ia, Ir.Reg rb -> DBinIR (op, d, ia, rb)
      | Ir.Imm ia, Ir.Imm ib -> DMovI (d, eval_binop op ia ib))
  | Ir.Cmp (op, d, a, b) -> (
      match (a, b) with
      | Ir.Reg ra, Ir.Reg rb -> DCmpRR (op, d, ra, rb)
      | Ir.Reg ra, Ir.Imm ib -> DCmpRI (op, d, ra, ib)
      | Ir.Imm ia, Ir.Reg rb -> DCmpIR (op, d, ia, rb)
      | Ir.Imm ia, Ir.Imm ib -> DMovI (d, eval_cmp op ia ib))
  | Ir.Mov (d, Ir.Reg r) -> DMovR (d, r)
  | Ir.Mov (d, Ir.Imm i) -> DMovI (d, i)
  | Ir.Load (d, b, o) -> DLoad (d, b, o)
  | Ir.Store (b, o, Ir.Reg r) -> DStoreR (b, o, r)
  | Ir.Store (b, o, Ir.Imm i) -> DStoreI (b, o, i)
  | Ir.Frame (d, o) -> DFrame (d, o)
  | Ir.Global (d, g) -> DGlobal (d, g)
  | Ir.Malloc (d, Ir.Reg r) -> DMallocR (d, r)
  | Ir.Malloc (d, Ir.Imm i) -> DMallocK (d, Stdlib.max 1 (i land 0xFFFFFF))
  | Ir.Free r -> DFree r
  | Ir.Call { fn; args; dst } -> DCall (fn, Array.of_list args, dst)
  | Ir.Ret (Ir.Reg r) -> DRetR r
  | Ir.Ret (Ir.Imm i) -> DRetI i
  | Ir.Br b -> DBr b
  | Ir.Brc (Ir.Reg c, t, e) -> DBrcR (c, t, e)
  | Ir.Brc (Ir.Imm c, t, e) -> DBrcK (c <> 0, t, e)

(* A segment is the straight-line run from an instruction up to and
   including the next env callback, call or terminator. [seg_len.(i)]
   and [seg_cycles.(i)] count the instructions and the base plus
   mul/div surcharge cycles from [i] to the end of its segment, so the
   interpreter retires a whole segment with one charge. *)
type dblock = { code : dinstr array; seg_len : int array; seg_cycles : int array }

let decode_block cost b =
  let code = Array.map decode_instr b.Ir.instrs in
  let n = Array.length code in
  let seg_len = Array.make n 1 and seg_cycles = Array.make n 0 in
  for i = n - 1 downto 0 do
    let own =
      cost.Stz_machine.Cost.base_cycles
      +
      match b.Ir.instrs.(i) with
      | Ir.Bin (Ir.Mul, _, _, _) -> cost.Stz_machine.Cost.mul
      | Ir.Bin (Ir.Div, _, _, _) -> cost.Stz_machine.Cost.div
      | _ -> 0
    in
    match code.(i) with
    | DGlobal _ | DMallocR _ | DMallocK _ | DFree _ | DCall _ | DRetR _ | DRetI _
    | DBr _ | DBrcR _ | DBrcK _ ->
        seg_cycles.(i) <- own
    | _ when i = n - 1 -> seg_cycles.(i) <- own
    | _ ->
        seg_len.(i) <- 1 + seg_len.(i + 1);
        seg_cycles.(i) <- own + seg_cycles.(i + 1)
  done;
  { code; seg_len; seg_cycles }

(* Simulated memory, word-granular ([addr lsr 3], exactly the key the
   former hashtable used, so negative addresses land on the same
   words). A paged flat store with a last-page memo replaces per-access
   hashing: loads see exactly what stores put there (0 when untouched),
   so program *values* are identical across layouts — layout affects
   timing only, the paper's premise. *)
let page_word_bits = 12
let page_words = 1 lsl page_word_bits
let page_mask = page_words - 1

module Pages = Hashtbl.Make (Int)

type mem = {
  pages : int array Pages.t;
  mutable memo_idx : int;
  mutable memo_page : int array;
}

let mem_create () = { pages = Pages.create 64; memo_idx = -1; memo_page = [||] }

let mem_page m word =
  let idx = word lsr page_word_bits in
  if idx = m.memo_idx then m.memo_page
  else begin
    let page =
      try Pages.find m.pages idx
      with Not_found ->
        let pg = Array.make page_words 0 in
        Pages.add m.pages idx pg;
        pg
    in
    m.memo_idx <- idx;
    m.memo_page <- page;
    page
  end

(* Retired instructions and their base/surcharge cycles accumulate in
   [pending_*] and are committed in one [charge_batch]. The flush
   discipline is what keeps counters bit-exact: pending work is flushed
   before every [env] callback (they may read cycles — re-randomization,
   profiling — or raise — injected OOM) and before every trap, so every
   external observation of the machine sees exactly the totals
   per-instruction charging would have produced. Cache/TLB/branch
   penalties still post immediately; their order against the batch
   commutes because counters are pure sums. *)
type state = {
  mutable fuel : int;
  mutable pending_instrs : int;
  mutable pending_cycles : int;
}

let flush_pending machine st =
  if st.pending_instrs <> 0 then begin
    Hierarchy.charge_batch machine ~instructions:st.pending_instrs
      ~cycles:st.pending_cycles;
    st.pending_instrs <- 0;
    st.pending_cycles <- 0
  end

let run ?(limits = default_limits) env p ~args =
  let st = { fuel = limits.max_instructions; pending_instrs = 0; pending_cycles = 0 } in
  let machine = env.machine in
  let cost = Hierarchy.cost machine in
  let fetch_shift = Hierarchy.fetch_shift machine in
  let fetch_line = Hierarchy.fetch_line_memo machine in
  let ib = Ir.instr_bytes in
  let memory = mem_create () in
  let funcs = p.Ir.funcs in
  let decoded = Array.make (Array.length funcs) [||] in
  let decode fid =
    let db = decoded.(fid) in
    if Array.length db > 0 then db
    else begin
      let db = Array.map (decode_block cost) funcs.(fid).Ir.blocks in
      decoded.(fid) <- db;
      db
    end
  in
  (* One activation is one loop. Each iteration executes the
     instruction at [pc]; the slow path behind [pc >= stop] runs only at
     block entry, at the start of a segment (every segment end leaves
     [pc = seg_end]) and when [pc] reaches the next fetch line. A
     segment is retired in one charge when the fuel covers all of it;
     otherwise each instruction checks the fuel and retires itself,
     exactly as per-instruction charging would. The full fetch-line
     compare runs at every segment start, since a callback or callee
     may have moved the memo; inside a segment only this loop's own
     [fetch_cross] moves it, so the compare waits for [line_end]. *)
  let rec exec_func depth fid src args =
    if depth > limits.max_call_depth then begin
      flush_pending machine st;
      raise Call_depth_exceeded
    end;
    let view = env.enter_function ~fid in
    let f = funcs.(fid) in
    let blocks = decode fid in
    let regs = Array.make (Stdlib.max 1 f.Ir.n_regs) 0 in
    for k = 0 to Stdlib.min (Array.length args) f.Ir.n_args - 1 do
      regs.(k) <- (match args.(k) with Ir.Reg r -> src.(r) | Ir.Imm i -> i)
    done;
    let frame = env.frame_push ~fid in
    let blk = ref blocks.(0) and code = ref [||] and flip = ref false in
    let next_block = ref 0 and ii = ref 0 and pc = ref 0 in
    let stop = ref min_int and seg_end = ref 0 and line_end = ref 0 in
    let result = ref 0 and running = ref true in
    while !running do
      if !pc >= !stop then begin
        if !next_block >= 0 then begin
          let b = !next_block in
          next_block := -1;
          blk := blocks.(b);
          code := !blk.code;
          flip := view.branch_flips.(b);
          ii := 0;
          pc := view.block_addrs.(b);
          seg_end := min_int
        end;
        let i = !ii and at = !pc and b = !blk in
        if at >= !seg_end then begin
          let n = b.seg_len.(i) in
          if st.fuel >= n then begin
            st.fuel <- st.fuel - n;
            st.pending_instrs <- st.pending_instrs + n;
            st.pending_cycles <- st.pending_cycles + b.seg_cycles.(i);
            seg_end := at + (n * ib)
          end
          else begin
            (* [n > 1] here: fuel >= 1 covers a one-instruction segment. *)
            if st.fuel <= 0 then begin
              flush_pending machine st;
              raise Fuel_exhausted
            end;
            st.fuel <- st.fuel - 1;
            st.pending_instrs <- st.pending_instrs + 1;
            st.pending_cycles <-
              st.pending_cycles + b.seg_cycles.(i) - b.seg_cycles.(i + 1);
            seg_end := at + ib
          end;
          line_end := min_int
        end;
        if at >= !line_end then begin
          let line = at lsr fetch_shift in
          if line <> !fetch_line then Hierarchy.fetch_cross machine at;
          line_end := (line + 1) lsl fetch_shift
        end;
        stop := if !seg_end < !line_end then !seg_end else !line_end
      end;
      let i = !ii and at = !pc in
      ii := i + 1;
      pc := at + ib;
      match !code.(i) with
      | DBinRR (op, d, ra, rb) -> regs.(d) <- eval_binop op regs.(ra) regs.(rb)
      | DBinRI (op, d, ra, ib) -> regs.(d) <- eval_binop op regs.(ra) ib
      | DBinIR (op, d, ia, rb) -> regs.(d) <- eval_binop op ia regs.(rb)
      | DCmpRR (op, d, ra, rb) -> regs.(d) <- eval_cmp op regs.(ra) regs.(rb)
      | DCmpRI (op, d, ra, ib) -> regs.(d) <- eval_cmp op regs.(ra) ib
      | DCmpIR (op, d, ia, rb) -> regs.(d) <- eval_cmp op ia regs.(rb)
      | DMovR (d, r) -> regs.(d) <- regs.(r)
      | DMovI (d, v) -> regs.(d) <- v
      | DLoad (d, b, o) ->
          let addr = regs.(b) + o in
          ignore (Hierarchy.data machine addr);
          let word = addr lsr 3 in
          regs.(d) <- (mem_page memory word).(word land page_mask)
      | DStoreR (b, o, r) ->
          let addr = regs.(b) + o in
          ignore (Hierarchy.data machine addr);
          let word = addr lsr 3 in
          (mem_page memory word).(word land page_mask) <- regs.(r)
      | DStoreI (b, o, v) ->
          let addr = regs.(b) + o in
          ignore (Hierarchy.data machine addr);
          let word = addr lsr 3 in
          (mem_page memory word).(word land page_mask) <- v
      | DFrame (d, o) -> regs.(d) <- frame + o
      | DGlobal (d, g) ->
          flush_pending machine st;
          regs.(d) <- env.global_addr ~caller:fid ~gid:g
      | DMallocR (d, r) ->
          let size = Stdlib.max 1 (regs.(r) land 0xFFFFFF) in
          flush_pending machine st;
          regs.(d) <- env.malloc ~size
      | DMallocK (d, size) ->
          flush_pending machine st;
          regs.(d) <- env.malloc ~size
      | DFree r ->
          flush_pending machine st;
          env.free ~addr:regs.(r)
      | DCall (fn, cargs, dst) ->
          flush_pending machine st;
          env.call_prologue ~caller:fid ~callee:fn;
          regs.(dst) <- exec_func (depth + 1) fn regs cargs
      | DRetR r ->
          result := regs.(r);
          running := false
      | DRetI v ->
          result := v;
          running := false
      | DBr b -> next_block := b
      | DBrcR (c, t, e) ->
          let taken = regs.(c) <> 0 in
          ignore (Hierarchy.branch machine ~pc:at ~taken:(taken <> !flip));
          next_block := if taken then t else e
      | DBrcK (taken, t, e) ->
          ignore (Hierarchy.branch machine ~pc:at ~taken:(taken <> !flip));
          next_block := if taken then t else e
    done;
    flush_pending machine st;
    env.frame_pop ~fid;
    !result
  in
  let entry_args = Array.of_list (List.map (fun a -> Ir.Imm a) args) in
  let result = exec_func 0 p.Ir.entry [||] entry_args in
  flush_pending machine st;
  result

let plain_env ~machine ~code_addrs ~global_addrs ~stack_base ~malloc ~free p =
  let views =
    Array.mapi
      (fun fid f ->
        let offsets = Ir.block_offsets f in
        {
          block_addrs = Array.map (fun o -> code_addrs.(fid) + o) offsets;
          branch_flips = Array.make (Array.length f.Ir.blocks) false;
        })
      p.Ir.funcs
  in
  let sp = ref stack_base in
  {
    machine;
    enter_function = (fun ~fid -> views.(fid));
    frame_push =
      (fun ~fid ->
        let f = p.Ir.funcs.(fid) in
        sp := !sp - f.Ir.frame_size;
        ignore (Hierarchy.data machine !sp);
        !sp);
    frame_pop =
      (fun ~fid ->
        let f = p.Ir.funcs.(fid) in
        sp := !sp + f.Ir.frame_size);
    global_addr = (fun ~caller:_ ~gid -> global_addrs.(gid));
    malloc = (fun ~size -> malloc size);
    free = (fun ~addr -> free addr);
    call_prologue = (fun ~caller:_ ~callee:_ -> Hierarchy.charge machine 2);
  }
