(** A set-associative cache with LRU replacement. Addresses are plain
    ints (simulated byte addresses). The *index bits* of an address —
    [line_bits .. line_bits + log2 sets - 1] — decide its set, which is
    exactly the layout sensitivity the paper exploits: two hot objects
    whose index bits collide evict each other regardless of how much
    total capacity is free. *)

type config = {
  name : string;
  sets : int;  (** power of two *)
  ways : int;
  line_bits : int;  (** log2 of the line size in bytes *)
}

type t

val create : config -> t
val config : t -> config

(** [access t addr] touches the line containing [addr]; returns [true]
    on hit. Misses fill the line (evicting the LRU way). *)
val access : t -> int -> bool

(** [probe t addr] is [true] if the line is resident; no state change. *)
val probe : t -> int -> bool

val accesses : t -> int
val misses : t -> int

(** Invalidate all lines, clear statistics and restart LRU order: the
    cache then answers every access stream exactly as a freshly
    created one would. An armed recorder stays armed, with its tables
    zeroed. *)
val reset : t -> unit

(** Invalidate all lines, keep statistics. *)
val flush : t -> unit

(** The range of address bits (lo, hi) that select the set, e.g. (6, 12)
    for a 128-set cache with 64-byte lines — the bits the paper's NIST
    analysis calls the "index bits". *)
val index_bits : t -> int * int

(** {1 Conflict attribution}

    An off-by-default observer plane for layout-bias diagnosis ([szc
    explain]): per-set occupancy plus a per-function eviction matrix
    recording who evicted whose lines. Dark ([attrib_armed t = false],
    the default) it costs one option check per access and changes no
    observable state; lit, it still never feeds back into hits, misses,
    LRU order or the clock — counters are identical either way. *)

(** Immutable copy of the recorder state. [evictions] is a
    [funcs*funcs] row-major matrix: entry [victim*funcs + evictor]
    counts valid lines installed by function [victim] that were evicted
    by a miss from function [evictor] (cross-function only). *)
type attrib_view = {
  funcs : int;
  set_accesses : int array;  (** accesses landing in each set *)
  set_misses : int array;  (** misses landing in each set *)
  evictions : int array;
}

(** Arm the recorder for a program with [funcs] functions (fids
    [0..funcs-1]). Re-arming starts a fresh recorder. *)
val arm_attrib : t -> funcs:int -> unit

val attrib_armed : t -> bool

(** Set the function id charged for subsequent accesses; [-1] (the
    initial state) means "outside any function" and is never charged. *)
val set_attrib_owner : t -> int -> unit

(** Snapshot the recorder ([None] when dark). Arrays are copies. *)
val attrib_view : t -> attrib_view option
