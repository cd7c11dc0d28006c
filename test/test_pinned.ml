(* Counter identity: one pinned digest per simulated run. Each digest
   covers the return value (or the trap), every [Hierarchy.counters]
   field, relocations and epochs, so any change to the interpreter or
   the machine model that moves a single simulated statistic fails
   here. The cases span the SPEC clones at every optimization level
   under the baseline and the full STABILIZER configuration, a slice of
   the fuzz meta-space, and the partial counters of runs cut short by
   fuel or call depth at chosen points of the instruction stream. *)

module Ir = Stz_vm.Ir
module B = Stz_vm.Builder
module Interp = Stz_vm.Interp
module Opt = Stz_vm.Opt
module Hierarchy = Stz_machine.Hierarchy
module Runtime = Stabilizer.Runtime
module Config = Stabilizer.Config
module Driver = Stabilizer.Driver
module W = Stz_workloads

let counters_string c =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Hierarchy.counters_fields c))

let outcome_string f =
  match f () with
  | r ->
      Printf.sprintf "ret=%d %s reloc=%d epochs=%d" r.Runtime.return_value
        (counters_string r.Runtime.counters)
        r.Runtime.relocations r.Runtime.epochs
  | exception Runtime.Trap { trap; partial; _ } ->
      Printf.sprintf "trap=%s %s reloc=%d epochs=%d" (Printexc.to_string trap)
        (counters_string partial.Runtime.p_counters)
        partial.Runtime.p_relocations partial.Runtime.p_epochs

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let run ?limits ~config ~seed p args =
  outcome_string (fun () -> Runtime.run ?limits ~config ~seed p ~args)

let configs = [ ("baseline", Config.baseline); ("stabilizer", Config.stabilizer) ]
let levels = [ Opt.O0; Opt.O1; Opt.O2; Opt.O3 ]

let spec_cases () =
  List.concat_map
    (fun prof ->
      let p =
        W.Generate.program (W.Profile.scale 0.2 (W.Spec.sized `Test prof))
      in
      List.concat_map
        (fun opt ->
          let c = Driver.compile ~opt p in
          List.map
            (fun (cname, config) ->
              ( Printf.sprintf "%s/%s/%s" prof.W.Profile.name
                  (Opt.level_to_string opt) cname,
                fun () -> run ~config ~seed:11L c W.Generate.default_args ))
            configs)
        levels)
    W.Spec.all

let fuzz_cases () =
  List.init 100 (fun index ->
      let plan = W.Fuzz.plan ~fuzz_seed:3L ~index in
      let opt = List.nth levels (index mod 4) in
      let cname, config = List.nth configs (index / 4 mod 2) in
      ( Printf.sprintf "fuzz/%d/%s/%s" index (Opt.level_to_string opt) cname,
        fun () ->
          run ~limits:(W.Fuzz.limits plan) ~config
            ~seed:(Int64.of_int (index + 1))
            (Driver.compile ~opt (W.Fuzz.build plan))
            (W.Fuzz.args plan) ))

(* main(n): a loop whose body mixes straight-line ALU work, memory
   traffic, a call and runtime callbacks (global, malloc, free), so
   fuel can run out anywhere relative to them. Instruction indices in
   execution order: b0 = 0..4 (the global at 3 ends the first
   straight-line stretch), b1 = 5..6, the first trip through b2 =
   7..17 with its call at 10 and leaf's body at 11..13. *)
let fuel_program () =
  let leaf = B.func ~fid:1 ~name:"leaf" ~n_args:2 () in
  let s = B.fresh_reg leaf and t = B.fresh_reg leaf in
  B.emit leaf (Ir.Bin (Ir.Add, s, Ir.Reg 0, Ir.Reg 1));
  B.emit leaf (Ir.Bin (Ir.Mul, t, Ir.Reg s, Ir.Imm 3));
  B.emit leaf (Ir.Ret (Ir.Reg t));
  let b = B.func ~fid:0 ~name:"main" ~n_args:1 ~frame_size:32 () in
  let r () = B.fresh_reg b in
  let acc = r () and i = r () and slot = r () and g = r () in
  let head = B.new_block b and body = B.new_block b and exit = B.new_block b in
  B.emit b (Ir.Mov (acc, Ir.Imm 0));
  B.emit b (Ir.Mov (i, Ir.Imm 0));
  B.emit b (Ir.Frame (slot, 8));
  B.emit b (Ir.Global (g, 0));
  B.emit b (Ir.Br head);
  B.set_block b head;
  let c = r () in
  B.emit b (Ir.Cmp (Ir.Lt, c, Ir.Reg i, Ir.Reg 0));
  B.emit b (Ir.Brc (Ir.Reg c, body, exit));
  B.set_block b body;
  let x = r () and y = r () and z = r () and h = r () in
  B.emit b (Ir.Bin (Ir.Add, x, Ir.Reg acc, Ir.Reg i));
  B.emit b (Ir.Store (slot, 0, Ir.Reg x));
  B.emit b (Ir.Load (y, slot, 0));
  B.emit b (Ir.Call { fn = 1; args = [ Ir.Reg y; Ir.Imm 2 ]; dst = z });
  B.emit b (Ir.Malloc (h, Ir.Imm 24));
  B.emit b (Ir.Store (h, 0, Ir.Reg z));
  B.emit b (Ir.Free h);
  B.emit b (Ir.Bin (Ir.Add, acc, Ir.Reg acc, Ir.Reg z));
  B.emit b (Ir.Store (g, 0, Ir.Reg acc));
  B.emit b (Ir.Bin (Ir.Add, i, Ir.Reg i, Ir.Imm 1));
  B.emit b (Ir.Br head);
  B.set_block b exit;
  let v = r () in
  B.emit b (Ir.Load (v, g, 0));
  B.emit b (Ir.Ret (Ir.Reg v));
  B.program
    ~funcs:[ B.finish b; B.finish leaf ]
    ~globals:[ { Ir.gid = 0; gname = "g"; gsize = 64 } ]
    ~entry:0

let with_fuel ~config fuel =
  run
    ~limits:(Interp.limits ~max_instructions:fuel ())
    ~config ~seed:5L (fuel_program ()) [ 3 ]

let fuel_cases () =
  let named =
    [
      ("mid-segment", 2);
      ("segment-end", 4);
      ("before-call", 10);
      ("on-call", 11);
      ("in-callee", 12);
    ]
  in
  List.concat_map
    (fun (cname, config) ->
      List.map
        (fun (what, fuel) ->
          (Printf.sprintf "fuel/%s/%s" what cname, fun () -> with_fuel ~config fuel))
        named
      @ [
          ( "fuel/sweep/" ^ cname,
            fun () ->
              String.concat "\n" (List.init 60 (fun k -> with_fuel ~config (k + 1))) );
        ])
    configs

(* f(n) = n <= 1 ? 1 : n * f(n-1), run past a depth limit of 5. *)
let fact_program () =
  let b = B.func ~fid:0 ~name:"fact" ~n_args:1 () in
  let base = B.new_block b and rec_ = B.new_block b in
  let c = B.fresh_reg b in
  B.emit b (Ir.Cmp (Ir.Le, c, Ir.Reg 0, Ir.Imm 1));
  B.emit b (Ir.Brc (Ir.Reg c, base, rec_));
  B.set_block b base;
  B.emit b (Ir.Ret (Ir.Imm 1));
  B.set_block b rec_;
  let m = B.fresh_reg b and r = B.fresh_reg b and out = B.fresh_reg b in
  B.emit b (Ir.Bin (Ir.Sub, m, Ir.Reg 0, Ir.Imm 1));
  B.emit b (Ir.Call { fn = 0; args = [ Ir.Reg m ]; dst = r });
  B.emit b (Ir.Bin (Ir.Mul, out, Ir.Reg 0, Ir.Reg r));
  B.emit b (Ir.Ret (Ir.Reg out));
  B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0

let depth_cases () =
  List.map
    (fun (cname, config) ->
      ( "depth/" ^ cname,
        fun () ->
          run
            ~limits:(Interp.limits ~max_call_depth:5 ())
            ~config ~seed:9L (fact_program ()) [ 100 ] ))
    configs

(* Regenerate by running this suite against a tree whose simulated
   statistics are known good: a mismatch prints every case's digest in
   the form below. *)
let pinned =
  [
    ("astar/O0/baseline", "c219e8f27c2c7599");
    ("astar/O0/stabilizer", "f45e868d5a5b642f");
    ("astar/O1/baseline", "bc53327f1dd71802");
    ("astar/O1/stabilizer", "165834d40bbfe65c");
    ("astar/O2/baseline", "bcc799e6b5734d4b");
    ("astar/O2/stabilizer", "d1e8182c63dc576a");
    ("astar/O3/baseline", "ae1a187f42dd4809");
    ("astar/O3/stabilizer", "edd45ac0baf80d3a");
    ("bzip2/O0/baseline", "389edaea5d5c8690");
    ("bzip2/O0/stabilizer", "fdb6b55f337f7e1f");
    ("bzip2/O1/baseline", "4b788517fdccb522");
    ("bzip2/O1/stabilizer", "b5fe1b991e2a91cb");
    ("bzip2/O2/baseline", "6f8f4d9a066731d0");
    ("bzip2/O2/stabilizer", "2bf1096cd2d7d98a");
    ("bzip2/O3/baseline", "6e65852aad36c579");
    ("bzip2/O3/stabilizer", "bc72e2db249ad625");
    ("cactusADM/O0/baseline", "c8d3f39321292795");
    ("cactusADM/O0/stabilizer", "483959d36df67e35");
    ("cactusADM/O1/baseline", "46be68518df129d2");
    ("cactusADM/O1/stabilizer", "9f8c9a839d6652cb");
    ("cactusADM/O2/baseline", "46be68518df129d2");
    ("cactusADM/O2/stabilizer", "9f8c9a839d6652cb");
    ("cactusADM/O3/baseline", "e5914bcfcdd076c4");
    ("cactusADM/O3/stabilizer", "33228b69deba7688");
    ("depth/baseline", "fbb587f2a0649fd7");
    ("depth/stabilizer", "0816c7840a3b2379");
    ("fuel/before-call/baseline", "b44b5886a3aeae70");
    ("fuel/before-call/stabilizer", "ad8bd775f03e3901");
    ("fuel/in-callee/baseline", "045d4e68798bbd18");
    ("fuel/in-callee/stabilizer", "d1c1a196e81c4cc2");
    ("fuel/mid-segment/baseline", "59d21ecc0662944e");
    ("fuel/mid-segment/stabilizer", "d384798d3c1d0f50");
    ("fuel/on-call/baseline", "1613b33aa9fce9ac");
    ("fuel/on-call/stabilizer", "86c1312596c07bfd");
    ("fuel/segment-end/baseline", "6d17ecd5617decb2");
    ("fuel/segment-end/stabilizer", "3b7ca07feb10e3c7");
    ("fuel/sweep/baseline", "50b0dddbbc16deb8");
    ("fuel/sweep/stabilizer", "e97bc1d4015e2edf");
    ("fuzz/0/O0/baseline", "edffb15f4cf2240e");
    ("fuzz/1/O1/baseline", "9354eb19b7a90723");
    ("fuzz/10/O2/baseline", "595f5f37a014eb3d");
    ("fuzz/11/O3/baseline", "c8d8d52c0d0a8f0f");
    ("fuzz/12/O0/stabilizer", "4d6fe017349ae044");
    ("fuzz/13/O1/stabilizer", "4f622528cdf9e4b2");
    ("fuzz/14/O2/stabilizer", "befd407566a144e9");
    ("fuzz/15/O3/stabilizer", "c1798c343bf99d1c");
    ("fuzz/16/O0/baseline", "2bb7f99aa8b00623");
    ("fuzz/17/O1/baseline", "4a792fe5eaebabe0");
    ("fuzz/18/O2/baseline", "871f6de4625b521e");
    ("fuzz/19/O3/baseline", "45a18118de5d0422");
    ("fuzz/2/O2/baseline", "f0f3a4a7fc5ec720");
    ("fuzz/20/O0/stabilizer", "1e359bedd12f1f97");
    ("fuzz/21/O1/stabilizer", "7556a63027223114");
    ("fuzz/22/O2/stabilizer", "c0c0442b4b99c5d4");
    ("fuzz/23/O3/stabilizer", "090744079e1f3cfd");
    ("fuzz/24/O0/baseline", "233614ec14011edd");
    ("fuzz/25/O1/baseline", "d1c914553e777d72");
    ("fuzz/26/O2/baseline", "9b09cf0d2f9c2c0d");
    ("fuzz/27/O3/baseline", "55385b5c4a539aac");
    ("fuzz/28/O0/stabilizer", "b49dab2f83def619");
    ("fuzz/29/O1/stabilizer", "a8b997bff27a5b0d");
    ("fuzz/3/O3/baseline", "9b291f9dfdf0c664");
    ("fuzz/30/O2/stabilizer", "981fe4d47c9d6f6f");
    ("fuzz/31/O3/stabilizer", "240c1dccb822950d");
    ("fuzz/32/O0/baseline", "f48a8e877ad06b63");
    ("fuzz/33/O1/baseline", "26700e53a5e5dd1f");
    ("fuzz/34/O2/baseline", "55184916f2026fad");
    ("fuzz/35/O3/baseline", "f61f50ca258723e6");
    ("fuzz/36/O0/stabilizer", "b8ad8780fa764cd1");
    ("fuzz/37/O1/stabilizer", "ac2c6ae806d589df");
    ("fuzz/38/O2/stabilizer", "2c8826b855f07335");
    ("fuzz/39/O3/stabilizer", "26e6150f467b2a45");
    ("fuzz/4/O0/stabilizer", "70d7278dd5a03874");
    ("fuzz/40/O0/baseline", "d7ff842979b00f4c");
    ("fuzz/41/O1/baseline", "450a5104c5cacba2");
    ("fuzz/42/O2/baseline", "aafeb94164294a34");
    ("fuzz/43/O3/baseline", "ad297af2c34e7697");
    ("fuzz/44/O0/stabilizer", "58225a6d7f45900a");
    ("fuzz/45/O1/stabilizer", "b92ad15eafca5eba");
    ("fuzz/46/O2/stabilizer", "60814e12294ed17f");
    ("fuzz/47/O3/stabilizer", "9e380acd0f78fbd8");
    ("fuzz/48/O0/baseline", "ffbedbb4215e6cac");
    ("fuzz/49/O1/baseline", "ffc1b4370aa18418");
    ("fuzz/5/O1/stabilizer", "08c95b1566af4338");
    ("fuzz/50/O2/baseline", "79fcf3d6849ee319");
    ("fuzz/51/O3/baseline", "71793041ba07c69c");
    ("fuzz/52/O0/stabilizer", "67930af0cbae3021");
    ("fuzz/53/O1/stabilizer", "d6063bd16194d689");
    ("fuzz/54/O2/stabilizer", "1ee6b7730c56d91e");
    ("fuzz/55/O3/stabilizer", "df6f8a40a8076215");
    ("fuzz/56/O0/baseline", "48f92ea723f9adcc");
    ("fuzz/57/O1/baseline", "4e4878b9b7985da3");
    ("fuzz/58/O2/baseline", "c111d943990a181f");
    ("fuzz/59/O3/baseline", "4714b68392847c45");
    ("fuzz/6/O2/stabilizer", "44c3f3aeb6e78388");
    ("fuzz/60/O0/stabilizer", "77eb86e4913f7205");
    ("fuzz/61/O1/stabilizer", "41525350460d674f");
    ("fuzz/62/O2/stabilizer", "55625e36482747e1");
    ("fuzz/63/O3/stabilizer", "805b956d9d95b010");
    ("fuzz/64/O0/baseline", "a48d5170583fd00c");
    ("fuzz/65/O1/baseline", "118cdbf783b46c1e");
    ("fuzz/66/O2/baseline", "56866743af5b2106");
    ("fuzz/67/O3/baseline", "6a6cbff8dfb43f06");
    ("fuzz/68/O0/stabilizer", "5ec15c85eb1a680b");
    ("fuzz/69/O1/stabilizer", "c8a2a9acb6b2f53a");
    ("fuzz/7/O3/stabilizer", "5dcdcf335c9a0c5d");
    ("fuzz/70/O2/stabilizer", "458a780062e48d01");
    ("fuzz/71/O3/stabilizer", "229fa346fc5958de");
    ("fuzz/72/O0/baseline", "d712ffc0b007b08c");
    ("fuzz/73/O1/baseline", "325d6f08f7d925f0");
    ("fuzz/74/O2/baseline", "94fca357b0a227e3");
    ("fuzz/75/O3/baseline", "e28beb2ee4f165b1");
    ("fuzz/76/O0/stabilizer", "4336f08a4adf09d7");
    ("fuzz/77/O1/stabilizer", "64a494b13d40f979");
    ("fuzz/78/O2/stabilizer", "1fed09a2a7c824a0");
    ("fuzz/79/O3/stabilizer", "c86c76799f091095");
    ("fuzz/8/O0/baseline", "0005f9b94c65d2fe");
    ("fuzz/80/O0/baseline", "c6668831deeb1973");
    ("fuzz/81/O1/baseline", "a9cca497fba6249a");
    ("fuzz/82/O2/baseline", "22720de0b7492c9c");
    ("fuzz/83/O3/baseline", "997df53b0be49baa");
    ("fuzz/84/O0/stabilizer", "2b61968d8dbe2c11");
    ("fuzz/85/O1/stabilizer", "0ea5ab8c4e5fa26d");
    ("fuzz/86/O2/stabilizer", "01cc4964c635a147");
    ("fuzz/87/O3/stabilizer", "438d56e74f7b03cd");
    ("fuzz/88/O0/baseline", "4da8a3f491b28bfe");
    ("fuzz/89/O1/baseline", "89be470650c08a7c");
    ("fuzz/9/O1/baseline", "de4dbb73cd40aa1b");
    ("fuzz/90/O2/baseline", "75d18ba36aecffc4");
    ("fuzz/91/O3/baseline", "a018cabc2ee3ea78");
    ("fuzz/92/O0/stabilizer", "18d98026f3466a61");
    ("fuzz/93/O1/stabilizer", "eff1bbc9b96db088");
    ("fuzz/94/O2/stabilizer", "2acc637ca058832f");
    ("fuzz/95/O3/stabilizer", "709699803fe50ae0");
    ("fuzz/96/O0/baseline", "31d148814484fbb1");
    ("fuzz/97/O1/baseline", "6625c6a066846ba9");
    ("fuzz/98/O2/baseline", "36b428b48e75d68e");
    ("fuzz/99/O3/baseline", "9d0233a4cab503e6");
    ("gcc/O0/baseline", "47838b8aa9e44e6c");
    ("gcc/O0/stabilizer", "6ff2fa67d2248b0f");
    ("gcc/O1/baseline", "eb05d1fd70b29a90");
    ("gcc/O1/stabilizer", "7428b3b5e2b384d2");
    ("gcc/O2/baseline", "b7918a571125b820");
    ("gcc/O2/stabilizer", "0604d715d842327f");
    ("gcc/O3/baseline", "198f7305ba6673ba");
    ("gcc/O3/stabilizer", "73048f25d2cb2f51");
    ("gobmk/O0/baseline", "b9c9e51817bc964a");
    ("gobmk/O0/stabilizer", "ef256c1e0f5704ef");
    ("gobmk/O1/baseline", "6525e1a0e3c86ba1");
    ("gobmk/O1/stabilizer", "879883ca55509a21");
    ("gobmk/O2/baseline", "cd3084b52b9d7128");
    ("gobmk/O2/stabilizer", "c342fe3f561796a1");
    ("gobmk/O3/baseline", "ecc733c2dde7a62e");
    ("gobmk/O3/stabilizer", "3d93e57a72b2d934");
    ("gromacs/O0/baseline", "4bd5f4892e0dba20");
    ("gromacs/O0/stabilizer", "b52ee419b6ec9a86");
    ("gromacs/O1/baseline", "36788c0140f3c787");
    ("gromacs/O1/stabilizer", "99f33543eb235edf");
    ("gromacs/O2/baseline", "d13e6a8e75895643");
    ("gromacs/O2/stabilizer", "0637d7d1f427a8ea");
    ("gromacs/O3/baseline", "328bae9f4c374c39");
    ("gromacs/O3/stabilizer", "76c0c2e75622c00b");
    ("h264ref/O0/baseline", "fdf1613f5e4d0141");
    ("h264ref/O0/stabilizer", "6acc93218d3298e0");
    ("h264ref/O1/baseline", "0dac40a677431b02");
    ("h264ref/O1/stabilizer", "c5188be95a818412");
    ("h264ref/O2/baseline", "177e3574d6a67151");
    ("h264ref/O2/stabilizer", "7f603e9551326dc4");
    ("h264ref/O3/baseline", "102d15980dbdaac9");
    ("h264ref/O3/stabilizer", "4ffc171eb5453da7");
    ("hmmer/O0/baseline", "9cbd0739f563985e");
    ("hmmer/O0/stabilizer", "e452fcee55d17ceb");
    ("hmmer/O1/baseline", "d2d1d139ee427bb1");
    ("hmmer/O1/stabilizer", "0f18ccfb87acea99");
    ("hmmer/O2/baseline", "6554d7d7447dd82c");
    ("hmmer/O2/stabilizer", "12bdeb75acd0142c");
    ("hmmer/O3/baseline", "f7aadc4cd50f4bc1");
    ("hmmer/O3/stabilizer", "8c5ccb16f82f851c");
    ("lbm/O0/baseline", "0a0374cef52be914");
    ("lbm/O0/stabilizer", "06d913121eaef816");
    ("lbm/O1/baseline", "3f19c2d7fd3f7d72");
    ("lbm/O1/stabilizer", "0b222a8a171f0a9e");
    ("lbm/O2/baseline", "3f19c2d7fd3f7d72");
    ("lbm/O2/stabilizer", "0b222a8a171f0a9e");
    ("lbm/O3/baseline", "7da42a9e8e92bb33");
    ("lbm/O3/stabilizer", "b56fb32983465c34");
    ("libquantum/O0/baseline", "6720cfa6402e3d62");
    ("libquantum/O0/stabilizer", "b288b5faf2279292");
    ("libquantum/O1/baseline", "2a3b51d7bd38da00");
    ("libquantum/O1/stabilizer", "0adc507b67aa74a3");
    ("libquantum/O2/baseline", "72e4345454dd2502");
    ("libquantum/O2/stabilizer", "085ba42866bf6b43");
    ("libquantum/O3/baseline", "695909da7a872bac");
    ("libquantum/O3/stabilizer", "5da6c36aa471a317");
    ("mcf/O0/baseline", "b43d83fcc2b20eae");
    ("mcf/O0/stabilizer", "b8e0e343a2fb452e");
    ("mcf/O1/baseline", "9682d04fa9994b62");
    ("mcf/O1/stabilizer", "ecc2d96809b47cc8");
    ("mcf/O2/baseline", "449a4b0663adc58d");
    ("mcf/O2/stabilizer", "caee30c1ca22a3b2");
    ("mcf/O3/baseline", "8e1828258cd8932b");
    ("mcf/O3/stabilizer", "be699da8ed7d94ce");
    ("milc/O0/baseline", "7c353c36f1a4dd61");
    ("milc/O0/stabilizer", "ec5e1470c6f08f5c");
    ("milc/O1/baseline", "72a9c9b7f28821b9");
    ("milc/O1/stabilizer", "f0be588621fdc79f");
    ("milc/O2/baseline", "72a9c9b7f28821b9");
    ("milc/O2/stabilizer", "f0be588621fdc79f");
    ("milc/O3/baseline", "587cdd85349ea13e");
    ("milc/O3/stabilizer", "770c64a6e976114c");
    ("namd/O0/baseline", "7f463b5ea0c1c0ba");
    ("namd/O0/stabilizer", "e03f6472d4ac92f4");
    ("namd/O1/baseline", "c2b4cf81222dc33d");
    ("namd/O1/stabilizer", "f71701f52274bc46");
    ("namd/O2/baseline", "77b60b47a340082b");
    ("namd/O2/stabilizer", "0ddd785cb664379d");
    ("namd/O3/baseline", "5c7f7f8e20e55400");
    ("namd/O3/stabilizer", "c72ee20641c0bf06");
    ("perlbench/O0/baseline", "3ac95087786ce7bf");
    ("perlbench/O0/stabilizer", "3a6c985dde1a5899");
    ("perlbench/O1/baseline", "def9c9339f85d154");
    ("perlbench/O1/stabilizer", "b8b08a3d0328c534");
    ("perlbench/O2/baseline", "e6ab8229a05bfb80");
    ("perlbench/O2/stabilizer", "8d71b04511c1e922");
    ("perlbench/O3/baseline", "9196f4bdcb8ecacd");
    ("perlbench/O3/stabilizer", "9586910d1a1b8983");
    ("sjeng/O0/baseline", "b2cd8556b20697de");
    ("sjeng/O0/stabilizer", "825b1f5c9f128e94");
    ("sjeng/O1/baseline", "67a073e75bd182be");
    ("sjeng/O1/stabilizer", "c8755bf7109be56b");
    ("sjeng/O2/baseline", "daae7f0451cbc954");
    ("sjeng/O2/stabilizer", "427fc159ea16e136");
    ("sjeng/O3/baseline", "2544f20742b960cb");
    ("sjeng/O3/stabilizer", "62a5863bea8458df");
    ("sphinx3/O0/baseline", "e8d1ead8593e8960");
    ("sphinx3/O0/stabilizer", "fd8018b58e9319a5");
    ("sphinx3/O1/baseline", "473eff8b73335786");
    ("sphinx3/O1/stabilizer", "f38956bf1c5755a5");
    ("sphinx3/O2/baseline", "8e2541001fc9750b");
    ("sphinx3/O2/stabilizer", "334f2df85f461551");
    ("sphinx3/O3/baseline", "e0b054e59e2153b5");
    ("sphinx3/O3/stabilizer", "fe26644034912ed3");
    ("wrf/O0/baseline", "7e62d0f8ab26fe39");
    ("wrf/O0/stabilizer", "bb6e5441dd7cd66f");
    ("wrf/O1/baseline", "98dae1e0ff74db49");
    ("wrf/O1/stabilizer", "562c4577911f7da4");
    ("wrf/O2/baseline", "da068ead8a8ca538");
    ("wrf/O2/stabilizer", "f4b82b270fc2d277");
    ("wrf/O3/baseline", "b79dea298bb005cf");
    ("wrf/O3/stabilizer", "7d9deeb39ab915c3");
    ("zeusmp/O0/baseline", "b761bd2d97a85146");
    ("zeusmp/O0/stabilizer", "b00edd307107076d");
    ("zeusmp/O1/baseline", "98f7e79ab47a4c19");
    ("zeusmp/O1/stabilizer", "de9e6c7a4e52c3f9");
    ("zeusmp/O2/baseline", "98f7e79ab47a4c19");
    ("zeusmp/O2/stabilizer", "de9e6c7a4e52c3f9");
    ("zeusmp/O3/baseline", "79ae920afebaa0a0");
    ("zeusmp/O3/stabilizer", "c384dc09282d7102");
  ]

let check_group name cases () =
  let got = List.map (fun (case, f) -> (case, digest (f ()))) (cases ()) in
  let bad =
    List.filter (fun (case, d) -> List.assoc_opt case pinned <> Some d) got
  in
  if bad <> [] then
    Alcotest.failf "%s: %d of %d digests differ; this tree gives:\n%s" name
      (List.length bad) (List.length got)
      (String.concat "\n"
         (List.map (fun (case, d) -> Printf.sprintf "    (%S, %S);" case d) got))

let () =
  Alcotest.run "pinned"
    [
      ( "counter identity",
        [
          Alcotest.test_case "spec clones x O0-O3 x configs" `Quick
            (check_group "spec" spec_cases);
          Alcotest.test_case "fuzz meta-space" `Quick
            (check_group "fuzz" fuzz_cases);
          Alcotest.test_case "fuel exhaustion partials" `Quick
            (check_group "fuel" fuel_cases);
          Alcotest.test_case "call depth partials" `Quick
            (check_group "depth" depth_cases);
        ] );
    ]
