type config = { name : string; sets : int; ways : int; line_bits : int }

type attrib_view = {
  funcs : int;
  set_accesses : int array;
  set_misses : int array;
  evictions : int array;  (** funcs*funcs, [victim*funcs + evictor] *)
}

(* Conflict-attribution recorder: off (None) unless armed. When lit it
   observes the access stream without participating in it — no counter,
   tag, stamp or clock mutation depends on it, so the dark and lit
   machines stay counter-identical by construction. *)
type attrib = {
  a_funcs : int;
  mutable owner : int;  (** current function id, -1 = outside any *)
  line_owner : int array;  (** per way slot: installer fid, -1 unknown *)
  a_set_accesses : int array;
  a_set_misses : int array;
  a_evictions : int array;
}

type t = {
  cfg : config;
  tags : int array;  (** sets * ways; -1 = invalid *)
  stamps : int array;  (** LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable attrib : attrib option;
}

let create cfg =
  if cfg.sets <= 0 || cfg.sets land (cfg.sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    cfg;
    tags = Array.make (cfg.sets * cfg.ways) (-1);
    stamps = Array.make (cfg.sets * cfg.ways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    attrib = None;
  }

let config t = t.cfg

let arm_attrib t ~funcs =
  if funcs <= 0 then invalid_arg "Cache.arm_attrib: funcs must be positive";
  t.attrib <-
    Some
      {
        a_funcs = funcs;
        owner = -1;
        line_owner = Array.make (t.cfg.sets * t.cfg.ways) (-1);
        a_set_accesses = Array.make t.cfg.sets 0;
        a_set_misses = Array.make t.cfg.sets 0;
        a_evictions = Array.make (funcs * funcs) 0;
      }

let attrib_armed t = t.attrib <> None

let set_attrib_owner t fid =
  match t.attrib with None -> () | Some a -> a.owner <- fid

let attrib_view t =
  match t.attrib with
  | None -> None
  | Some a ->
      Some
        {
          funcs = a.a_funcs;
          set_accesses = Array.copy a.a_set_accesses;
          set_misses = Array.copy a.a_set_misses;
          evictions = Array.copy a.a_evictions;
        }

let set_of t addr = (addr lsr t.cfg.line_bits) land (t.cfg.sets - 1)
let tag_of t addr = addr lsr t.cfg.line_bits

(* The miss half of [access], including the recorder: the victim is
   the first way with the minimum stamp. *)
let miss t set tag base =
  let victim = ref base in
  for w = base + 1 to base + t.cfg.ways - 1 do
    if t.stamps.(w) < t.stamps.(!victim) then victim := w
  done;
  let victim = !victim in
  (match t.attrib with
  | None -> ()
  | Some a ->
      a.a_set_accesses.(set) <- a.a_set_accesses.(set) + 1;
      a.a_set_misses.(set) <- a.a_set_misses.(set) + 1;
      (* A real eviction (valid victim line) installed by a different
         function than the evictor is a cross-function conflict. The
         matrix is read before [tags] is overwritten below. *)
      let victim_owner = a.line_owner.(victim) in
      if
        t.tags.(victim) <> -1
        && victim_owner >= 0
        && a.owner >= 0
        && victim_owner <> a.owner
      then begin
        let k = (victim_owner * a.a_funcs) + a.owner in
        a.a_evictions.(k) <- a.a_evictions.(k) + 1
      end;
      a.line_owner.(victim) <- a.owner);
  t.misses <- t.misses + 1;
  t.tags.(victim) <- tag;
  t.stamps.(victim) <- t.clock;
  false

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let tag = tag_of t addr in
  let set = tag land (t.cfg.sets - 1) in
  let base = set * t.cfg.ways in
  let last = base + t.cfg.ways in
  let w = ref base in
  while !w < last && t.tags.(!w) <> tag do
    incr w
  done;
  if !w = last then miss t set tag base
  else begin
    t.stamps.(!w) <- t.clock;
    (match t.attrib with
    | None -> ()
    | Some a -> a.a_set_accesses.(set) <- a.a_set_accesses.(set) + 1);
    true
  end

let probe t addr =
  let set = set_of t addr in
  let tag = tag_of t addr in
  let base = set * t.cfg.ways in
  let found = ref false in
  for w = base to base + t.cfg.ways - 1 do
    if t.tags.(w) = tag then found := true
  done;
  !found

let accesses t = t.accesses
let misses t = t.misses

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  match t.attrib with
  | None -> ()
  | Some a -> Array.fill a.line_owner 0 (Array.length a.line_owner) (-1)

(* The LRU stamps go back to 0 with the clock: a stamp left from before
   the reset would outrank every line installed after it, so the new
   lines would be evicted ahead of stale invalid ways. *)
let reset t =
  flush t;
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.accesses <- 0;
  t.misses <- 0;
  t.clock <- 0;
  match t.attrib with
  | None -> ()
  | Some a ->
      a.owner <- -1;
      Array.fill a.a_set_accesses 0 (Array.length a.a_set_accesses) 0;
      Array.fill a.a_set_misses 0 (Array.length a.a_set_misses) 0;
      Array.fill a.a_evictions 0 (Array.length a.a_evictions) 0

let index_bits t =
  let bits = ref 0 and s = ref t.cfg.sets in
  while !s > 1 do
    incr bits;
    s := !s lsr 1
  done;
  (t.cfg.line_bits, t.cfg.line_bits + !bits - 1)
