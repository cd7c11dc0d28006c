(* Reference outputs for the default seed. Any other seed falls back to
   the workloads' internal checks (optimization levels agree, output
   does not depend on the worker count, repetitions repeat). *)

let default_seed = 1

let table =
  [
    ("verdict-mcf.returns", "1972320");
    ("verdict-mcf.counters", "394e855a389878a85b4de52fc29e1483");
    ("verdict-mcf.speedup", "1.0069458614751245");
    ("verdict-mcf.p_value", "3.9343481888700566e-09");
    ("tenants-rerand.gcc.csv", "f8c6384a7951395cec42a22c9a7ab41a");
    ("tenants-rerand.gcc.checkpoint", "690927bbba8d86e9233f8d1c3c7e0d08");
    ("tenants-rerand.perlbench.csv", "9c739f7d1f98327362cb7590111bfdf4");
    ("tenants-rerand.perlbench.checkpoint", "6a54444ee3664c0ab690e3701ce54375");
    ("fuzz-gauntlet.summary", "total=500 clean=475 trapped=25 failed=0 crashed=0 hung=0");
    ("fuzz-gauntlet.ledger", "470edd16c47354e744c40217f56f64ed");
  ]

(* A check of [actual] against the pinned value of [key]; [None] on a
   seed other than the default. *)
let check ~seed key actual =
  if seed <> default_seed then None
  else
    match List.assoc_opt key table with
    | Some want -> Some (Bench.check ("pinned." ^ key) (want = actual) (Printf.sprintf "got %s, pinned %s" actual want))
    | None -> Some (Bench.check ("pinned." ^ key) false (Printf.sprintf "got %s, nothing pinned" actual))
