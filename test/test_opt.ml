module Ir = Stz_vm.Ir
module B = Stz_vm.Builder
module O = Stz_vm.Opt
module I = Stz_vm.Interp
module V = Stz_vm.Validate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let single instrs ~n_regs =
  let f =
    {
      Ir.fid = 0;
      fname = "f";
      blocks = [| { Ir.instrs = Array.of_list instrs } |];
      n_args = 0;
      n_regs;
      frame_size = 64;
    }
  in
  { Ir.funcs = [| f |]; globals = [||]; entry = 0 }

let instrs_of p = Array.to_list p.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs

let run_plain p args =
  let machine = Stz_machine.Hierarchy.create () in
  let code_addrs =
    let pos = ref 0x400000 in
    Array.map
      (fun f ->
        let a = !pos in
        pos := !pos + Ir.func_size_bytes f + 16;
        a)
      p.Ir.funcs
  in
  let global_addrs =
    let pos = ref 0x600000 in
    Array.map
      (fun (g : Ir.global) ->
        let a = !pos in
        pos := !pos + g.gsize + 16;
        a)
      p.Ir.globals
  in
  let brk = ref 0x10000000 in
  let env =
    I.plain_env ~machine ~code_addrs ~global_addrs ~stack_base:0x7FFF0000
      ~malloc:(fun size ->
        let a = !brk in
        brk := !brk + ((size + 15) land lnot 15);
        a)
      ~free:(fun _ -> ())
      p
  in
  let v = I.run env p ~args in
  (v, Stz_machine.Hierarchy.cycles machine, (Stz_machine.Hierarchy.counters machine).Stz_machine.Hierarchy.instructions)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let fold_collapses_chain () =
  let p =
    single ~n_regs:4
      [
        Ir.Mov (0, Ir.Imm 3);
        Ir.Bin (Ir.Mul, 1, Ir.Reg 0, Ir.Imm 4);
        Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Imm 5);
        Ir.Ret (Ir.Reg 2);
      ]
  in
  let q = O.const_fold p in
  (match instrs_of q with
  | [ _; Ir.Mov (1, Ir.Imm 12); Ir.Mov (2, Ir.Imm 17); Ir.Ret (Ir.Imm 17) ] -> ()
  | other ->
      Alcotest.failf "unexpected folding result: %d instrs" (List.length other));
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 17 v

let fold_resolves_constant_branch () =
  let f =
    {
      Ir.fid = 0;
      fname = "f";
      blocks =
        [|
          { Ir.instrs = [| Ir.Mov (0, Ir.Imm 1); Ir.Brc (Ir.Reg 0, 1, 2) |] };
          { Ir.instrs = [| Ir.Ret (Ir.Imm 100) |] };
          { Ir.instrs = [| Ir.Ret (Ir.Imm 200) |] };
        |];
      n_args = 0;
      n_regs = 1;
      frame_size = 16;
    }
  in
  let p = { Ir.funcs = [| f |]; globals = [||]; entry = 0 } in
  let q = O.const_fold p in
  (match q.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs.(1) with
  | Ir.Br 1 -> ()
  | _ -> Alcotest.fail "Brc on constant not resolved");
  let v, _, _ = run_plain q [] in
  check_int "takes then-branch" 100 v

let fold_does_not_cross_blocks () =
  (* Constants known in block 0 must not leak into block 1 (registers
     are mutable across blocks; our folder is block-local). *)
  let f =
    {
      Ir.fid = 0;
      fname = "f";
      blocks =
        [|
          { Ir.instrs = [| Ir.Mov (0, Ir.Imm 7); Ir.Br 1 |] };
          { Ir.instrs = [| Ir.Bin (Ir.Add, 1, Ir.Reg 0, Ir.Imm 1); Ir.Ret (Ir.Reg 1) |] };
        |];
      n_args = 0;
      n_regs = 2;
      frame_size = 16;
    }
  in
  let p = { Ir.funcs = [| f |]; globals = [||]; entry = 0 } in
  let q = O.const_fold p in
  (match q.Ir.funcs.(0).Ir.blocks.(1).Ir.instrs.(0) with
  | Ir.Bin (Ir.Add, 1, Ir.Reg 0, Ir.Imm 1) -> ()
  | _ -> Alcotest.fail "folder crossed a block boundary");
  let v, _, _ = run_plain q [] in
  check_int "still correct" 8 v

(* ------------------------------------------------------------------ *)
(* Simplify                                                            *)
(* ------------------------------------------------------------------ *)

let simplify_identities () =
  let p =
    single ~n_regs:6
      [
        Ir.Mov (0, Ir.Imm 9);
        Ir.Bin (Ir.Add, 1, Ir.Reg 0, Ir.Imm 0);
        Ir.Bin (Ir.Mul, 2, Ir.Reg 1, Ir.Imm 1);
        Ir.Bin (Ir.Mul, 3, Ir.Reg 2, Ir.Imm 0);
        Ir.Bin (Ir.Xor, 4, Ir.Reg 2, Ir.Imm 0);
        Ir.Ret (Ir.Reg 4);
      ]
  in
  let q = O.simplify p in
  let movs =
    List.length
      (List.filter (function Ir.Mov _ -> true | _ -> false) (instrs_of q))
  in
  check_int "all identities became moves" 5 movs;
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 9 v

(* ------------------------------------------------------------------ *)
(* DCE                                                                 *)
(* ------------------------------------------------------------------ *)

let dce_removes_dead () =
  let p =
    single ~n_regs:4
      [
        Ir.Mov (0, Ir.Imm 1);
        Ir.Mov (1, Ir.Imm 2) (* dead *);
        Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Imm 1) (* makes r1 live... *);
        Ir.Ret (Ir.Reg 0);
      ]
  in
  (* r2 is dead -> removed; then r1's use disappears -> r1 dead too:
     the fixpoint matters. *)
  let q = O.dce p in
  check_int "only live code remains" 2 (List.length (instrs_of q));
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 1 v

let dce_keeps_side_effects () =
  let p =
    single ~n_regs:4
      [
        Ir.Frame (0, 0);
        Ir.Store (0, 0, Ir.Imm 5) (* store kept although nothing reads it *);
        Ir.Malloc (1, Ir.Imm 64) (* kept: allocation is observable *);
        Ir.Ret (Ir.Imm 0);
      ]
  in
  let q = O.dce p in
  check_int "nothing removed" 4 (List.length (instrs_of q))

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)
(* ------------------------------------------------------------------ *)

let cse_removes_duplicate () =
  let p =
    single ~n_regs:6
      [
        Ir.Mov (0, Ir.Imm 6);
        Ir.Mov (1, Ir.Imm 7);
        Ir.Bin (Ir.Mul, 2, Ir.Reg 0, Ir.Reg 1);
        Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1) (* duplicate *);
        Ir.Bin (Ir.Add, 4, Ir.Reg 2, Ir.Reg 3);
        Ir.Ret (Ir.Reg 4);
      ]
  in
  let q = O.cse_local p in
  (match List.nth (instrs_of q) 3 with
  | Ir.Mov (3, Ir.Reg 2) -> ()
  | _ -> Alcotest.fail "duplicate not replaced by move");
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 84 v

let cse_respects_redefinition () =
  (* x*y computed, then x changes: the second x*y must NOT be reused. *)
  let p =
    single ~n_regs:6
      [
        Ir.Mov (0, Ir.Imm 2);
        Ir.Mov (1, Ir.Imm 3);
        Ir.Bin (Ir.Mul, 2, Ir.Reg 0, Ir.Reg 1);
        Ir.Mov (0, Ir.Imm 10) (* redefinition *);
        Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1);
        Ir.Bin (Ir.Add, 4, Ir.Reg 2, Ir.Reg 3);
        Ir.Ret (Ir.Reg 4);
      ]
  in
  let q = O.cse_local p in
  (match List.nth (instrs_of q) 4 with
  | Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1) -> ()
  | Ir.Mov _ -> Alcotest.fail "unsound reuse after redefinition"
  | _ -> Alcotest.fail "unexpected rewrite");
  let v, _, _ = run_plain q [] in
  check_int "6 + 30" 36 v

let cse_self_referential_key () =
  (* acc = acc + 1 twice: the second is NOT redundant. *)
  let p =
    single ~n_regs:2
      [
        Ir.Mov (0, Ir.Imm 5);
        Ir.Bin (Ir.Add, 0, Ir.Reg 0, Ir.Imm 1);
        Ir.Bin (Ir.Add, 0, Ir.Reg 0, Ir.Imm 1);
        Ir.Ret (Ir.Reg 0);
      ]
  in
  let q = O.cse_local p in
  let v, _, _ = run_plain q [] in
  check_int "both increments kept" 7 v

let cse_load_invalidated_by_store () =
  let p =
    single ~n_regs:6
      [
        Ir.Frame (0, 0);
        Ir.Store (0, 0, Ir.Imm 1);
        Ir.Load (1, 0, 0);
        Ir.Store (0, 0, Ir.Imm 2) (* clobbers *);
        Ir.Load (2, 0, 0) (* must reload *);
        Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Reg 2);
        Ir.Ret (Ir.Reg 3);
      ]
  in
  let q = O.cse_local p in
  let v, _, _ = run_plain q [] in
  check_int "1 + 2" 3 v

let cse_reuses_repeated_load () =
  let p =
    single ~n_regs:6
      [
        Ir.Frame (0, 0);
        Ir.Store (0, 0, Ir.Imm 9);
        Ir.Load (1, 0, 0);
        Ir.Load (2, 0, 0) (* redundant *);
        Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Reg 2);
        Ir.Ret (Ir.Reg 3);
      ]
  in
  let q = O.cse_local p in
  (match List.nth (instrs_of q) 3 with
  | Ir.Mov (2, Ir.Reg 1) -> ()
  | _ -> Alcotest.fail "redundant load kept");
  let v, _, _ = run_plain q [] in
  check_int "value" 18 v

(* A holder overwritten between two equal expressions no longer holds
   the value: the second computation must stay. *)
let cse_redefined_holder_not_reused () =
  let p =
    single ~n_regs:5
      [
        Ir.Mov (0, Ir.Imm 4);
        Ir.Mov (1, Ir.Imm 5);
        Ir.Bin (Ir.Add, 2, Ir.Reg 0, Ir.Reg 1);
        Ir.Mov (2, Ir.Imm 100) (* the holder is redefined *);
        Ir.Bin (Ir.Add, 3, Ir.Reg 0, Ir.Reg 1);
        Ir.Bin (Ir.Add, 4, Ir.Reg 2, Ir.Reg 3);
        Ir.Ret (Ir.Reg 4);
      ]
  in
  let q = O.cse_local p in
  (match List.nth (instrs_of q) 4 with
  | Ir.Bin (Ir.Add, 3, Ir.Reg 0, Ir.Reg 1) -> ()
  | _ -> Alcotest.fail "stale holder reused");
  let v, _, _ = run_plain q [] in
  check_int "100 + 9" 109 v

(* Two equal loads with a memory side effect between them: the second
   must reload, whichever of the four clobbers sits in the middle. *)
let cse_load_kept_across_clobbers () =
  let leaf =
    let b = B.func ~fid:1 ~name:"leaf" ~n_args:0 ~frame_size:16 () in
    B.emit b (Ir.Ret (Ir.Imm 0));
    B.finish b
  in
  List.iter
    (fun (name, clobber) ->
      let main =
        let b = B.func ~fid:0 ~name:"main" ~n_args:0 ~frame_size:64 () in
        let base = B.fresh_reg b and x = B.fresh_reg b and y = B.fresh_reg b in
        let aux = B.fresh_reg b and spare = B.fresh_reg b in
        B.emit b (Ir.Malloc (aux, Ir.Imm 32));
        B.emit b (Ir.Frame (base, 0));
        B.emit b (Ir.Store (base, 0, Ir.Imm 7));
        B.emit b (Ir.Load (x, base, 0));
        B.emit b (clobber ~aux ~spare);
        B.emit b (Ir.Load (y, base, 0));
        let out = B.fresh_reg b in
        B.emit b (Ir.Bin (Ir.Add, out, Ir.Reg x, Ir.Reg y));
        B.emit b (Ir.Ret (Ir.Reg out));
        B.finish b
      in
      let p = B.program ~funcs:[ main; leaf ] ~globals:[] ~entry:0 in
      let q = O.cse_local p in
      let loads =
        List.filter
          (function Ir.Load _ -> true | _ -> false)
          (instrs_of q)
      in
      check_int (name ^ ": both loads kept") 2 (List.length loads))
    [
      ("store", fun ~aux ~spare:_ -> Ir.Store (aux, 0, Ir.Imm 1));
      ("call", fun ~aux:_ ~spare -> Ir.Call { fn = 1; args = []; dst = spare });
      ("malloc", fun ~aux:_ ~spare -> Ir.Malloc (spare, Ir.Imm 16));
      ("free", fun ~aux ~spare:_ -> Ir.Free aux);
    ]

(* A call clobbers memory, not registers other than its destination:
   pure arithmetic on unchanged operands is still reused across it. *)
let cse_arith_reused_across_call () =
  let leaf =
    let b = B.func ~fid:1 ~name:"leaf" ~n_args:0 ~frame_size:16 () in
    B.emit b (Ir.Ret (Ir.Imm 3));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 ~frame_size:32 () in
    let a = B.fresh_reg b and c = B.fresh_reg b in
    let s1 = B.fresh_reg b and r = B.fresh_reg b and s2 = B.fresh_reg b in
    B.emit b (Ir.Mov (a, Ir.Imm 6));
    B.emit b (Ir.Mov (c, Ir.Imm 7));
    B.emit b (Ir.Bin (Ir.Mul, s1, Ir.Reg a, Ir.Reg c));
    B.emit b (Ir.Call { fn = 1; args = []; dst = r });
    B.emit b (Ir.Bin (Ir.Mul, s2, Ir.Reg a, Ir.Reg c));
    let t = B.fresh_reg b and out = B.fresh_reg b in
    B.emit b (Ir.Bin (Ir.Add, t, Ir.Reg s1, Ir.Reg s2));
    B.emit b (Ir.Bin (Ir.Add, out, Ir.Reg t, Ir.Reg r));
    B.emit b (Ir.Ret (Ir.Reg out));
    B.finish b
  in
  let p = B.program ~funcs:[ main; leaf ] ~globals:[] ~entry:0 in
  let q = O.cse_local p in
  (match List.nth (instrs_of q) 4 with
  | Ir.Mov (d, Ir.Reg h) when d = 4 && h = 2 -> ()
  | i ->
      Alcotest.failf "expected the product reused across the call, got %s"
        (match i with Ir.Bin _ -> "a recomputation" | _ -> "another rewrite"));
  let v, _, _ = run_plain q [] in
  check_int "42 + 42 + 3" 87 v

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)
(* ------------------------------------------------------------------ *)

let call_program () =
  let callee =
    let b = B.func ~fid:1 ~name:"leaf" ~n_args:2 ~frame_size:32 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Bin (Ir.Mul, r, Ir.Reg 0, Ir.Reg 1));
    let s = B.fresh_reg b in
    B.emit b (Ir.Frame (s, 0));
    B.emit b (Ir.Store (s, 0, Ir.Reg r));
    let out = B.fresh_reg b in
    B.emit b (Ir.Load (out, s, 0));
    B.emit b (Ir.Ret (Ir.Reg out));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 ~frame_size:48 () in
    let r1 = B.fresh_reg b in
    let r2 = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 1; args = [ Ir.Imm 6; Ir.Imm 7 ]; dst = r1 });
    B.emit b (Ir.Call { fn = 1; args = [ Ir.Imm 2; Ir.Imm 3 ]; dst = r2 });
    let out = B.fresh_reg b in
    B.emit b (Ir.Bin (Ir.Add, out, Ir.Reg r1, Ir.Reg r2));
    B.emit b (Ir.Ret (Ir.Reg out));
    B.finish b
  in
  B.program ~funcs:[ main; callee ] ~globals:[] ~entry:0

let inline_replaces_calls () =
  let p = call_program () in
  let q = O.inline_leaves p in
  let calls =
    Array.fold_left
      (fun acc blk ->
        acc
        + Array.fold_left
            (fun a i -> match i with Ir.Call _ -> a + 1 | _ -> a)
            0 blk.Ir.instrs)
      0 q.Ir.funcs.(0).Ir.blocks
  in
  check_int "no calls remain in main" 0 calls;
  V.check_exn q;
  let v, _, _ = run_plain q [] in
  check_int "semantics preserved" 48 v

let inline_grows_frame () =
  let p = call_program () in
  let q = O.inline_leaves p in
  check_int "frame absorbs callee" (48 + 32) q.Ir.funcs.(0).Ir.frame_size

let inline_respects_threshold () =
  let p = call_program () in
  let q = O.inline_leaves ~threshold:2 p in
  let calls =
    Array.fold_left
      (fun acc blk ->
        acc
        + Array.fold_left
            (fun a i -> match i with Ir.Call _ -> a + 1 | _ -> a)
            0 blk.Ir.instrs)
      0 q.Ir.funcs.(0).Ir.blocks
  in
  check_int "too big to inline" 2 calls

let inline_skips_multiblock () =
  (* A callee with a branch is not inlined. *)
  let callee =
    let b = B.func ~fid:1 ~name:"branchy" ~n_args:1 () in
    let t = B.new_block b in
    let e = B.new_block b in
    B.emit b (Ir.Brc (Ir.Reg 0, t, e));
    B.set_block b t;
    B.emit b (Ir.Ret (Ir.Imm 1));
    B.set_block b e;
    B.emit b (Ir.Ret (Ir.Imm 2));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 1; args = [ Ir.Imm 1 ]; dst = r });
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let p = B.program ~funcs:[ main; callee ] ~globals:[] ~entry:0 in
  let q = O.inline_leaves p in
  (match q.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs.(0) with
  | Ir.Call _ -> ()
  | _ -> Alcotest.fail "multi-block callee was inlined")

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)
(* ------------------------------------------------------------------ *)

let copy_prop_rewrites_uses () =
  let p =
    single ~n_regs:4
      [
        Ir.Mov (0, Ir.Imm 5);
        Ir.Mov (1, Ir.Reg 0) (* copy *);
        Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Reg 1);
        Ir.Ret (Ir.Reg 2);
      ]
  in
  let q = O.copy_propagate p in
  (match List.nth (instrs_of q) 2 with
  | Ir.Bin (Ir.Add, 2, Ir.Reg 0, Ir.Reg 0) -> ()
  | _ -> Alcotest.fail "uses not rewritten to the copy source");
  (* The now-dead move disappears under DCE. *)
  let r = O.dce q in
  check_int "dead copy removed" 3 (List.length (instrs_of r));
  let v, _, _ = run_plain r [] in
  check_int "value preserved" 10 v

let copy_prop_respects_redefinition () =
  (* After the source is overwritten, the copy must no longer be used. *)
  let p =
    single ~n_regs:4
      [
        Ir.Mov (0, Ir.Imm 5);
        Ir.Mov (1, Ir.Reg 0);
        Ir.Mov (0, Ir.Imm 9) (* source redefined *);
        Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Reg 0);
        Ir.Ret (Ir.Reg 2);
      ]
  in
  let q = O.copy_propagate p in
  let v, _, _ = run_plain q [] in
  check_int "5 + 9" 14 v

let copy_prop_chains () =
  (* r2 = r1 = r0: uses of r2 go straight to r0. *)
  let p =
    single ~n_regs:4
      [
        Ir.Mov (0, Ir.Imm 3);
        Ir.Mov (1, Ir.Reg 0);
        Ir.Mov (2, Ir.Reg 1);
        Ir.Ret (Ir.Reg 2);
      ]
  in
  let q = O.copy_propagate p in
  (match List.nth (instrs_of q) 3 with
  | Ir.Ret (Ir.Reg 0) -> ()
  | _ -> Alcotest.fail "chain not collapsed");
  let v, _, _ = run_plain q [] in
  check_int "value" 3 v

let copy_prop_preserves_semantics =
  QCheck.Test.make ~name:"copy propagation preserves results" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let prof =
        {
          Stz_workloads.Profile.default with
          Stz_workloads.Profile.name = "cp-test";
          functions = 6;
          hot_functions = 3;
          iterations = 4;
          inner_trips = 5;
          seed = Int64.of_int (seed + 900);
        }
      in
      let p = Stz_workloads.Generate.program prof in
      let reference, _, _ = run_plain p [ 1 ] in
      let q = O.dce (O.copy_propagate p) in
      V.check_program q = []
      &&
      let v, _, _ = run_plain q [ 1 ] in
      v = reference)

(* ------------------------------------------------------------------ *)
(* strip_dead                                                          *)
(* ------------------------------------------------------------------ *)

let strip_dead_program () =
  let mk_ret fid value refs_global =
    let b = B.func ~fid ~name:(Printf.sprintf "f%d" fid) ~n_args:0 () in
    if refs_global >= 0 then begin
      let r = B.fresh_reg b in
      B.emit b (Ir.Global (r, refs_global))
    end;
    B.emit b (Ir.Ret (Ir.Imm value));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 2; args = []; dst = r });
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let globals =
    [
      { Ir.gid = 0; gname = "dead_g"; gsize = 64 };
      { Ir.gid = 1; gname = "live_g"; gsize = 64 };
    ]
  in
  (* f1 is dead (references dead_g), f2 is live (references live_g). *)
  B.program ~funcs:[ main; mk_ret 1 11 0; mk_ret 2 22 1 ] ~globals ~entry:0

let strip_dead_removes () =
  let p = strip_dead_program () in
  let q = O.strip_dead p in
  check_int "one function stripped" 2 (Array.length q.Ir.funcs);
  check_int "one global stripped" 1 (Array.length q.Ir.globals);
  V.check_exn q;
  let v, _, _ = run_plain q [] in
  check_int "semantics preserved" 22 v

let strip_dead_renumbers () =
  let q = O.strip_dead (strip_dead_program ()) in
  Array.iteri (fun i f -> check_int "dense fid" i f.Ir.fid) q.Ir.funcs;
  Array.iteri (fun i (g : Ir.global) -> check_int "dense gid" i g.Ir.gid) q.Ir.globals

(* ------------------------------------------------------------------ *)
(* Pipelines on generated workloads                                    *)
(* ------------------------------------------------------------------ *)

let small_profile seed =
  {
    Stz_workloads.Profile.default with
    Stz_workloads.Profile.name = "opt-test";
    functions = 6;
    hot_functions = 3;
    iterations = 4;
    inner_trips = 5;
    dead_functions = 2;
    seed;
  }

let pipelines_preserve_semantics =
  QCheck.Test.make ~name:"O0..O3 compute identical results" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let p = Stz_workloads.Generate.program (small_profile (Int64.of_int (seed + 1))) in
      let reference, _, _ = run_plain (O.apply O.O0 p) [ 1 ] in
      List.for_all
        (fun level ->
          let v, _, _ = run_plain (O.apply level p) [ 1 ] in
          v = reference)
        [ O.O1; O.O2; O.O3 ])

let pipelines_validate =
  QCheck.Test.make ~name:"optimized programs validate" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let p = Stz_workloads.Generate.program (small_profile (Int64.of_int (seed + 500))) in
      List.for_all
        (fun level -> V.check_program (O.apply level p) = [])
        [ O.O0; O.O1; O.O2; O.O3 ])

let levels_reduce_work () =
  let p = Stz_workloads.Generate.program (small_profile 7L) in
  let measure level =
    let _, cycles, instrs = run_plain (O.apply level p) [ 1 ] in
    (cycles, instrs)
  in
  let c0, i0 = measure O.O0 in
  let c1, i1 = measure O.O1 in
  let c2, _ = measure O.O2 in
  let c3, _ = measure O.O3 in
  check_bool "O1 executes fewer instructions than O0" true (i1 < i0);
  check_bool "O1 is faster than O0" true (c1 < c0);
  check_bool "O2 is no slower than O1" true (c2 <= c1);
  check_bool "O3 is within noise of O2" true
    (float_of_int c3 < float_of_int c2 *. 1.02)

let o3_strips_dead_functions () =
  let p = Stz_workloads.Generate.program (small_profile 9L) in
  let q = O.apply O.O3 p in
  check_bool "dead functions removed" true
    (Array.length q.Ir.funcs < Array.length p.Ir.funcs)

let level_strings () =
  List.iter
    (fun l ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (O.level_to_string l))
        (Option.map O.level_to_string (O.level_of_string (O.level_to_string l))))
    [ O.O0; O.O1; O.O2; O.O3 ]

(* ------------------------------------------------------------------ *)
(* Pinned pipeline output                                              *)
(* ------------------------------------------------------------------ *)

(* The O1-O3 pipelines byte for byte: one digest per (corpus, level)
   over the Text rendering of every output, so a rewrite of any pass
   that claims identical output is held to it. The corpus is 200 fuzz
   plans (fuzz_seed 5) and the 18 SPEC clones at scale 0.3. *)
let golden_pipeline_digests =
  [
    ("fuzz/O1", "815ae4c91b0e22f0cfc7ef92cd05a94c");
    ("fuzz/O2", "24bd41e6b5bb8c893cd6510a1d6651d4");
    ("fuzz/O3", "fbda029036a9632dcc45a88b4c17e009");
    ("spec/O1", "940be524ea8f9330da1d0b931d735aac");
    ("spec/O2", "24b27818586188309afe4b2b6e503d59");
    ("spec/O3", "ffb742317ca519f5bfe742f1a1425947");
  ]

let pipeline_output_pinned () =
  let module W = Stz_workloads in
  let corpora =
    [
      ( "fuzz",
        List.init 200 (fun index ->
            W.Fuzz.build (W.Fuzz.plan ~fuzz_seed:5L ~index)) );
      ( "spec",
        List.map (fun prof -> W.Generate.program (W.Profile.scale 0.3 prof)) W.Spec.all
      );
    ]
  in
  let actual =
    List.concat_map
      (fun (name, progs) ->
        List.map
          (fun lvl ->
            let per_program p =
              Digest.string
                (match O.apply lvl p with
                | q -> Stz_vm.Text.to_string q
                | exception e -> "raised " ^ Printexc.to_string e)
            in
            ( name ^ "/" ^ O.level_to_string lvl,
              Digest.to_hex (Digest.string (String.concat "" (List.map per_program progs))) ))
          [ O.O1; O.O2; O.O3 ])
      corpora
  in
  Alcotest.(check (list (pair string string)))
    "pipeline output digests" golden_pipeline_digests actual

let () =
  Alcotest.run "opt"
    [
      ( "const_fold",
        [
          Alcotest.test_case "collapses chain" `Quick fold_collapses_chain;
          Alcotest.test_case "constant branch" `Quick fold_resolves_constant_branch;
          Alcotest.test_case "block-local only" `Quick fold_does_not_cross_blocks;
        ] );
      ("simplify", [ Alcotest.test_case "identities" `Quick simplify_identities ]);
      ( "dce",
        [
          Alcotest.test_case "removes dead (fixpoint)" `Quick dce_removes_dead;
          Alcotest.test_case "keeps side effects" `Quick dce_keeps_side_effects;
        ] );
      ( "cse",
        [
          Alcotest.test_case "removes duplicate" `Quick cse_removes_duplicate;
          Alcotest.test_case "redefinition safe" `Quick cse_respects_redefinition;
          Alcotest.test_case "self-referential" `Quick cse_self_referential_key;
          Alcotest.test_case "store invalidates load" `Quick cse_load_invalidated_by_store;
          Alcotest.test_case "reuses repeated load" `Quick cse_reuses_repeated_load;
          Alcotest.test_case "redefined holder not reused" `Quick
            cse_redefined_holder_not_reused;
          Alcotest.test_case "load kept across clobbers" `Quick
            cse_load_kept_across_clobbers;
          Alcotest.test_case "arithmetic reused across call" `Quick
            cse_arith_reused_across_call;
        ] );
      ( "inline",
        [
          Alcotest.test_case "replaces calls" `Quick inline_replaces_calls;
          Alcotest.test_case "grows frame" `Quick inline_grows_frame;
          Alcotest.test_case "threshold" `Quick inline_respects_threshold;
          Alcotest.test_case "skips multi-block" `Quick inline_skips_multiblock;
        ] );
      ( "copy_propagate",
        [
          Alcotest.test_case "rewrites uses" `Quick copy_prop_rewrites_uses;
          Alcotest.test_case "redefinition safe" `Quick copy_prop_respects_redefinition;
          Alcotest.test_case "chains" `Quick copy_prop_chains;
          QCheck_alcotest.to_alcotest copy_prop_preserves_semantics;
        ] );
      ( "strip_dead",
        [
          Alcotest.test_case "removes" `Quick strip_dead_removes;
          Alcotest.test_case "renumbers" `Quick strip_dead_renumbers;
        ] );
      ( "pipelines",
        [
          QCheck_alcotest.to_alcotest pipelines_preserve_semantics;
          QCheck_alcotest.to_alcotest pipelines_validate;
          Alcotest.test_case "levels reduce work" `Quick levels_reduce_work;
          Alcotest.test_case "O3 strips dead" `Quick o3_strips_dead_functions;
          Alcotest.test_case "level strings" `Quick level_strings;
          Alcotest.test_case "output pinned" `Quick pipeline_output_pinned;
        ] );
    ]
