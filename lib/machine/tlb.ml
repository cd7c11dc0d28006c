type config = { name : string; entries : int; ways : int; page_bits : int }

(* A TLB is its translation cache: every function is the [Cache] one
   itself, not a wrapper, so a lookup from another module costs one
   call, not two. *)
type t = Cache.t

let create cfg =
  if cfg.entries mod cfg.ways <> 0 then
    invalid_arg "Tlb.create: entries must be a multiple of ways";
  let sets = cfg.entries / cfg.ways in
  Cache.create
    { Cache.name = cfg.name; sets; ways = cfg.ways; line_bits = cfg.page_bits }

let access = Cache.access
let arm_attrib = Cache.arm_attrib
let attrib_armed = Cache.attrib_armed
let set_attrib_owner = Cache.set_attrib_owner
let attrib_view = Cache.attrib_view
let accesses = Cache.accesses
let misses = Cache.misses
let flush = Cache.flush
let reset = Cache.reset
