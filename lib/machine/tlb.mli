(** A translation lookaside buffer: a small set-associative cache of
    page translations. Randomized layouts touch more distinct pages, so
    the TLB is the component that charges STABILIZER its overhead (the
    paper attributes most of the slowdown to added TLB pressure). *)

type config = {
  name : string;
  entries : int;  (** total entries, power of two *)
  ways : int;
  page_bits : int;  (** log2 page size, 12 for 4 KiB pages *)
}

type t

val create : config -> t

(** [access t addr] looks up the page of [addr]; returns [true] on hit. *)
val access : t -> int -> bool

val accesses : t -> int
val misses : t -> int

(** Drop all translations, keep statistics. *)
val flush : t -> unit

(** Back to the freshly created state: {!Cache.reset}. *)
val reset : t -> unit

(** {1 Conflict attribution}

    Delegated to the underlying set-associative translation cache; for
    a TLB the "sets" of the {!Cache.attrib_view} are translation sets
    and evictions are page-translation conflicts. Same plane-separation
    contract as {!Cache}. *)

val arm_attrib : t -> funcs:int -> unit
val attrib_armed : t -> bool
val set_attrib_owner : t -> int -> unit
val attrib_view : t -> Cache.attrib_view option
