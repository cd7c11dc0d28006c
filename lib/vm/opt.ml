type level = O0 | O1 | O2 | O3

let level_to_string = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2" | O3 -> "O3"

let level_of_string = function
  | "O0" | "o0" -> Some O0
  | "O1" | "o1" -> Some O1
  | "O2" | "o2" -> Some O2
  | "O3" | "o3" -> Some O3
  | _ -> None

let map_funcs f p =
  let p = Ir.copy_program p in
  p.Ir.funcs <- Array.map f p.Ir.funcs;
  p

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let fold_block blk =
  let known : (Ir.reg, int) Hashtbl.t = Hashtbl.create 16 in
  let subst = function
    | Ir.Reg r as op ->
        (match Hashtbl.find_opt known r with Some v -> Ir.Imm v | None -> op)
    | Ir.Imm _ as op -> op
  in
  let define d value =
    match value with
    | Some v -> Hashtbl.replace known d v
    | None -> Hashtbl.remove known d
  in
  let fold_instr instr =
    match instr with
    | Ir.Bin (op, d, a, b) -> (
        let a = subst a and b = subst b in
        match (a, b) with
        | Ir.Imm x, Ir.Imm y ->
            let v = Interp.eval_binop op x y in
            define d (Some v);
            Ir.Mov (d, Ir.Imm v)
        | _ ->
            define d None;
            Ir.Bin (op, d, a, b))
    | Ir.Cmp (op, d, a, b) -> (
        let a = subst a and b = subst b in
        match (a, b) with
        | Ir.Imm x, Ir.Imm y ->
            let v = Interp.eval_cmp op x y in
            define d (Some v);
            Ir.Mov (d, Ir.Imm v)
        | _ ->
            define d None;
            Ir.Cmp (op, d, a, b))
    | Ir.Mov (d, a) -> (
        let a = subst a in
        (match a with
        | Ir.Imm v -> define d (Some v)
        | Ir.Reg _ -> define d None);
        Ir.Mov (d, a))
    | Ir.Load (d, b, o) ->
        define d None;
        Ir.Load (d, b, o)
    | Ir.Store (b, o, v) -> Ir.Store (b, o, subst v)
    | Ir.Frame (d, o) ->
        define d None;
        Ir.Frame (d, o)
    | Ir.Global (d, g) ->
        define d None;
        Ir.Global (d, g)
    | Ir.Malloc (d, s) ->
        define d None;
        Ir.Malloc (d, subst s)
    | Ir.Free r -> Ir.Free r
    | Ir.Call { fn; args; dst } ->
        let args = List.map subst args in
        define dst None;
        Ir.Call { fn; args; dst }
    | Ir.Ret v -> Ir.Ret (subst v)
    | Ir.Br b -> Ir.Br b
    | Ir.Brc (c, t, e) -> (
        match subst c with
        | Ir.Imm v -> Ir.Br (if v <> 0 then t else e)
        | Ir.Reg _ as c -> Ir.Brc (c, t, e))
  in
  blk.Ir.instrs <- Array.map fold_instr blk.Ir.instrs

let const_fold p =
  map_funcs
    (fun f ->
      Array.iter fold_block f.Ir.blocks;
      f)
    p

(* ------------------------------------------------------------------ *)
(* Algebraic simplification                                            *)
(* ------------------------------------------------------------------ *)

type planted = Shift_clamp

let planted_bug : planted option ref = ref None

let simplify_instr instr =
  match instr with
  (* Test hook for the fuzzer's acceptance gauntlet: with Shift_clamp
     planted, shift-by-1 is "simplified" to a move — the observable
     symptom of the pre-PR-7 [land 62] clamp, now expressed as a
     miscompile the differential oracles must catch. Listed before the
     legitimate identities so it wins the match when armed. *)
  | Ir.Bin ((Ir.Shl | Ir.Shr), d, x, Ir.Imm 1) when !planted_bug = Some Shift_clamp
    ->
      Ir.Mov (d, x)
  | Ir.Bin (op, d, a, b) -> (
      match (op, a, b) with
      | Ir.Add, x, Ir.Imm 0 | Ir.Add, Ir.Imm 0, x -> Ir.Mov (d, x)
      | Ir.Sub, x, Ir.Imm 0 -> Ir.Mov (d, x)
      | Ir.Mul, x, Ir.Imm 1 | Ir.Mul, Ir.Imm 1, x -> Ir.Mov (d, x)
      | Ir.Mul, _, Ir.Imm 0 | Ir.Mul, Ir.Imm 0, _ -> Ir.Mov (d, Ir.Imm 0)
      | Ir.Div, x, Ir.Imm 1 -> Ir.Mov (d, x)
      | Ir.And, _, Ir.Imm 0 | Ir.And, Ir.Imm 0, _ -> Ir.Mov (d, Ir.Imm 0)
      | Ir.Or, x, Ir.Imm 0 | Ir.Or, Ir.Imm 0, x -> Ir.Mov (d, x)
      | Ir.Xor, x, Ir.Imm 0 | Ir.Xor, Ir.Imm 0, x -> Ir.Mov (d, x)
      | (Ir.Shl | Ir.Shr), x, Ir.Imm 0 -> Ir.Mov (d, x)
      | _ -> instr)
  | _ -> instr

let simplify p =
  map_funcs
    (fun f ->
      Array.iter
        (fun blk -> blk.Ir.instrs <- Array.map simplify_instr blk.Ir.instrs)
        f.Ir.blocks;
      f)
    p

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)
(* ------------------------------------------------------------------ *)

let reads_of instr =
  let of_operand = function Ir.Reg r -> [ r ] | Ir.Imm _ -> [] in
  match instr with
  | Ir.Bin (_, _, a, b) | Ir.Cmp (_, _, a, b) -> of_operand a @ of_operand b
  | Ir.Mov (_, a) -> of_operand a
  | Ir.Load (_, b, _) -> [ b ]
  | Ir.Store (b, _, v) -> b :: of_operand v
  | Ir.Frame _ | Ir.Global _ -> []
  | Ir.Malloc (_, s) -> of_operand s
  | Ir.Free r -> [ r ]
  | Ir.Call { args; _ } -> List.concat_map of_operand args
  | Ir.Ret v -> of_operand v
  | Ir.Br _ -> []
  | Ir.Brc (c, _, _) -> of_operand c

(* The destination of a pure (removable-when-dead) instruction. Calls,
   stores, frees and terminators are never removed. Loads are pure:
   removing a dead load preserves values (it only changes timing, which
   is what optimization is supposed to do). *)
let pure_dst = function
  | Ir.Bin (_, d, _, _)
  | Ir.Cmp (_, d, _, _)
  | Ir.Mov (d, _)
  | Ir.Load (d, _, _)
  | Ir.Frame (d, _)
  | Ir.Global (d, _) ->
      Some d
  | Ir.Store _ | Ir.Malloc _ | Ir.Free _ | Ir.Call _ | Ir.Ret _ | Ir.Br _
  | Ir.Brc _ ->
      None

let dce_func f =
  let changed = ref true in
  while !changed do
    changed := false;
    let used = Array.make (Stdlib.max 1 f.Ir.n_regs) false in
    (* Arguments are observable at entry but only matter if read;
       reads are what we collect. *)
    Array.iter
      (fun blk ->
        Array.iter
          (fun i -> List.iter (fun r -> used.(r) <- true) (reads_of i))
          blk.Ir.instrs)
      f.Ir.blocks;
    Array.iter
      (fun blk ->
        let keep =
          Array.to_list blk.Ir.instrs
          |> List.filter (fun i ->
                 match pure_dst i with
                 | Some d when not used.(d) ->
                     changed := true;
                     false
                 | Some _ | None -> true)
        in
        blk.Ir.instrs <- Array.of_list keep)
      f.Ir.blocks
  done;
  f

let dce p = map_funcs dce_func p

(* ------------------------------------------------------------------ *)
(* Local common subexpression elimination                              *)
(* ------------------------------------------------------------------ *)

(* Keys are versioned, so nothing is ever removed from the table: a
   register operand carries the register's definition count, a load
   the block's memory epoch, and a holder is recorded with its own
   definition count. Redefining a register or clobbering memory bumps
   a counter, which makes every key mentioning the old value unmatched
   and every entry held by the old value stale. Each instruction is
   one lookup and at most one insertion. *)
type vop = Vreg of Ir.reg * int | Vimm of int

type expr_key =
  | Kbin of Ir.binop * vop * vop
  | Kcmp of Ir.cmp * vop * vop
  | Kframe of int
  | Kglobal of int
  | Kload of Ir.reg * int * int * int  (** base, its version, offset, epoch *)

(* [ver.(r)] counts the definitions of [r] seen so far in the function;
   registers are below [n_regs], as {!Validate} checks. *)
let cse_block ver blk =
  let avail : (expr_key, Ir.reg * int) Hashtbl.t = Hashtbl.create 16 in
  let epoch = ref 0 in
  let vop = function Ir.Reg r -> Vreg (r, ver.(r)) | Ir.Imm k -> Vimm k in
  let define d = ver.(d) <- ver.(d) + 1 in
  let rewrite instr =
    (* [key] was built before [d] is redefined here, so a key that
       mentions [d] names its old value and can never match again. *)
    let try_reuse d key =
      match Hashtbl.find_opt avail key with
      | Some (holder, v) when holder <> d && ver.(holder) = v ->
          define d;
          Ir.Mov (d, Ir.Reg holder)
      | Some _ | None ->
          define d;
          Hashtbl.replace avail key (d, ver.(d));
          instr
    in
    match instr with
    | Ir.Bin (op, d, a, b) -> try_reuse d (Kbin (op, vop a, vop b))
    | Ir.Cmp (op, d, a, b) -> try_reuse d (Kcmp (op, vop a, vop b))
    | Ir.Frame (d, o) -> try_reuse d (Kframe o)
    | Ir.Global (d, g) -> try_reuse d (Kglobal g)
    | Ir.Load (d, b, o) -> try_reuse d (Kload (b, ver.(b), o, !epoch))
    | Ir.Mov (d, _) ->
        define d;
        instr
    | Ir.Store _ | Ir.Free _ ->
        incr epoch;
        instr
    | Ir.Malloc (d, _) | Ir.Call { dst = d; _ } ->
        define d;
        incr epoch;
        instr
    | Ir.Ret _ | Ir.Br _ | Ir.Brc _ -> instr
  in
  blk.Ir.instrs <- Array.map rewrite blk.Ir.instrs

let cse_local p =
  map_funcs
    (fun f ->
      let ver = Array.make (Stdlib.max 1 f.Ir.n_regs) 0 in
      Array.iter (cse_block ver) f.Ir.blocks;
      f)
    p

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)
(* ------------------------------------------------------------------ *)

let default_inline_threshold = 16
let o1_inline_threshold = 10
let o3_inline_threshold = 120

let inlinable p fid threshold =
  let g = p.Ir.funcs.(fid) in
  fid <> p.Ir.entry
  && Array.length g.Ir.blocks = 1
  && Ir.callees g = []
  && Ir.func_instr_count g <= threshold

let inline_leaves ?(threshold = default_inline_threshold) p =
  let p = Ir.copy_program p in
  let funcs =
    Array.map
      (fun f ->
        let extra_frame = ref 0 in
        let next_reg = ref f.Ir.n_regs in
        let expand instr =
          match instr with
          | Ir.Call { fn; args; dst } when inlinable p fn threshold ->
              let g = p.Ir.funcs.(fn) in
              let reg_base = !next_reg in
              next_reg := !next_reg + g.Ir.n_regs;
              extra_frame := Stdlib.max !extra_frame g.Ir.frame_size;
              let map_reg r = reg_base + r in
              let map_operand = function
                | Ir.Reg r -> Ir.Reg (map_reg r)
                | Ir.Imm _ as o -> o
              in
              let arg_moves =
                List.mapi (fun i a -> Ir.Mov (map_reg i, a)) args
              in
              let body =
                Array.to_list g.Ir.blocks.(0).Ir.instrs
                |> List.map (fun gi ->
                       match gi with
                       | Ir.Bin (op, d, a, b) ->
                           Ir.Bin (op, map_reg d, map_operand a, map_operand b)
                       | Ir.Cmp (op, d, a, b) ->
                           Ir.Cmp (op, map_reg d, map_operand a, map_operand b)
                       | Ir.Mov (d, a) -> Ir.Mov (map_reg d, map_operand a)
                       | Ir.Load (d, b, o) -> Ir.Load (map_reg d, map_reg b, o)
                       | Ir.Store (b, o, v) ->
                           Ir.Store (map_reg b, o, map_operand v)
                       | Ir.Frame (d, o) ->
                           (* Callee frame slots live beyond the caller's
                              own frame region. *)
                           Ir.Frame (map_reg d, o + f.Ir.frame_size)
                       | Ir.Global (d, g) -> Ir.Global (map_reg d, g)
                       | Ir.Malloc (d, s) -> Ir.Malloc (map_reg d, map_operand s)
                       | Ir.Free r -> Ir.Free (map_reg r)
                       | Ir.Ret v -> Ir.Mov (dst, map_operand v)
                       | Ir.Call _ | Ir.Br _ | Ir.Brc _ ->
                           (* Excluded by [inlinable]. *)
                           assert false)
              in
              arg_moves @ body
          | other -> [ other ]
        in
        Array.iter
          (fun blk ->
            blk.Ir.instrs <-
              Array.of_list (List.concat_map expand (Array.to_list blk.Ir.instrs)))
          f.Ir.blocks;
        f.Ir.n_regs <- !next_reg;
        { f with Ir.frame_size = f.Ir.frame_size + !extra_frame })
      p.Ir.funcs
  in
  p.Ir.funcs <- funcs;
  p

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)
(* ------------------------------------------------------------------ *)

let copy_propagate_block blk =
  (* copies.(d) = Some s when d currently holds a copy of s. *)
  let copies : (Ir.reg, Ir.reg) Hashtbl.t = Hashtbl.create 16 in
  let invalidate r =
    Hashtbl.remove copies r;
    let stale =
      Hashtbl.fold (fun d s acc -> if s = r then d :: acc else acc) copies []
    in
    List.iter (Hashtbl.remove copies) stale
  in
  let subst_reg r = match Hashtbl.find_opt copies r with Some s -> s | None -> r in
  let subst = function
    | Ir.Reg r -> Ir.Reg (subst_reg r)
    | Ir.Imm _ as op -> op
  in
  let rewrite instr =
    match instr with
    | Ir.Mov (d, Ir.Reg s) ->
        let s = subst_reg s in
        invalidate d;
        if s <> d then Hashtbl.replace copies d s;
        Ir.Mov (d, Ir.Reg s)
    | Ir.Mov (d, a) ->
        invalidate d;
        Ir.Mov (d, a)
    | Ir.Bin (op, d, a, b) ->
        let a = subst a and b = subst b in
        invalidate d;
        Ir.Bin (op, d, a, b)
    | Ir.Cmp (op, d, a, b) ->
        let a = subst a and b = subst b in
        invalidate d;
        Ir.Cmp (op, d, a, b)
    | Ir.Load (d, b, o) ->
        let b = subst_reg b in
        invalidate d;
        Ir.Load (d, b, o)
    | Ir.Store (b, o, v) -> Ir.Store (subst_reg b, o, subst v)
    | Ir.Frame (d, o) ->
        invalidate d;
        Ir.Frame (d, o)
    | Ir.Global (d, g) ->
        invalidate d;
        Ir.Global (d, g)
    | Ir.Malloc (d, sz) ->
        let sz = subst sz in
        invalidate d;
        Ir.Malloc (d, sz)
    | Ir.Free r -> Ir.Free (subst_reg r)
    | Ir.Call { fn; args; dst } ->
        let args = List.map subst args in
        invalidate dst;
        Ir.Call { fn; args; dst }
    | Ir.Ret v -> Ir.Ret (subst v)
    | Ir.Br b -> Ir.Br b
    | Ir.Brc (c, t, e) -> Ir.Brc (subst c, t, e)
  in
  blk.Ir.instrs <- Array.map rewrite blk.Ir.instrs

let copy_propagate p =
  map_funcs
    (fun f ->
      Array.iter copy_propagate_block f.Ir.blocks;
      f)
    p

(* ------------------------------------------------------------------ *)
(* Dead global / function elimination                                  *)
(* ------------------------------------------------------------------ *)

let strip_dead p =
  let p = Ir.copy_program p in
  let n = Array.length p.Ir.funcs in
  let reachable = Array.make n false in
  let rec visit fid =
    if not reachable.(fid) then begin
      reachable.(fid) <- true;
      List.iter visit (Ir.callees p.Ir.funcs.(fid))
    end
  in
  visit p.Ir.entry;
  let fid_map = Array.make n (-1) in
  let next = ref 0 in
  for fid = 0 to n - 1 do
    if reachable.(fid) then begin
      fid_map.(fid) <- !next;
      incr next
    end
  done;
  let live_globals = Hashtbl.create 16 in
  Array.iteri
    (fun fid f ->
      if reachable.(fid) then
        List.iter (fun g -> Hashtbl.replace live_globals g ()) (Ir.referenced_globals f))
    p.Ir.funcs;
  let gn = Array.length p.Ir.globals in
  let gid_map = Array.make gn (-1) in
  let gnext = ref 0 in
  for gid = 0 to gn - 1 do
    if Hashtbl.mem live_globals gid then begin
      gid_map.(gid) <- !gnext;
      incr gnext
    end
  done;
  let remap_instr = function
    | Ir.Call { fn; args; dst } -> Ir.Call { fn = fid_map.(fn); args; dst }
    | Ir.Global (d, g) -> Ir.Global (d, gid_map.(g))
    | other -> other
  in
  let funcs =
    Array.to_list p.Ir.funcs
    |> List.filteri (fun fid _ -> reachable.(fid))
    |> List.map (fun f ->
           Array.iter
             (fun blk -> blk.Ir.instrs <- Array.map remap_instr blk.Ir.instrs)
             f.Ir.blocks;
           { f with Ir.fid = fid_map.(f.Ir.fid) })
    |> Array.of_list
  in
  let globals =
    Array.to_list p.Ir.globals
    |> List.filteri (fun gid _ -> Hashtbl.mem live_globals gid)
    |> List.map (fun g -> { g with Ir.gid = gid_map.(g.Ir.gid) })
    |> Array.of_list
  in
  { Ir.funcs; globals; entry = fid_map.(p.Ir.entry) }

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

let apply level p =
  let passes =
    match level with
    | O0 -> []
    (* Like LLVM, the basic inliner already runs at O1 (tiny callees
       only); O2 adds common subexpression elimination; O3 "increases
       the amount of inlining" and strips dead globals (paper §6). *)
    | O1 ->
        [
          const_fold; simplify;
          inline_leaves ~threshold:o1_inline_threshold;
          const_fold; simplify; dce;
        ]
    | O2 ->
        [
          const_fold; simplify;
          inline_leaves ~threshold:o1_inline_threshold;
          cse_local; const_fold; simplify; dce;
        ]
    | O3 ->
        [
          const_fold; simplify;
          inline_leaves ~threshold:o3_inline_threshold;
          cse_local; const_fold; simplify; dce;
          strip_dead;
        ]
  in
  let out = List.fold_left (fun acc pass -> pass acc) (Ir.copy_program p) passes in
  Validate.check_exn out;
  out
