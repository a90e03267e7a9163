(** Reusable per-query workspace: seen mask + candidate buffer + pivot
    scratch.

    A query marks every candidate it dedupes into the scratch; [reset]
    clears only the marked bytes (O(candidates), not O(store)), so one
    scratch amortises the hot path's allocations to zero across queries.
    Every query entry point borrows its domain's scratch through
    {!with_local}, so steady-state queries allocate no seen mask, in
    batches and pooled batches alike.

    A scratch is single-domain state: share it across {e sequential}
    queries only. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty scratch; [capacity] pre-sizes the seen mask. *)

val ensure : t -> int -> unit
(** Grow the seen mask to cover ids [0, n).  Called at query start, when
    the scratch is clean; marks never survive growth. *)

val capacity : t -> int

val mark : t -> int -> bool
(** [mark t id] is [true] the first time [id] is marked since the last
    {!reset} (and records it), [false] on every repeat — the query-side
    dedup test-and-set.  [id] must be below {!capacity}. *)

val mem : t -> int -> bool
(** Has [id] been marked since the last reset?  (No marking.) *)

val count : t -> int
(** Ids marked since the last reset. *)

val get : t -> int -> int
(** [get t i]: the [i]-th marked id, in discovery order, [i < count t].
    Valid until the next {!reset}. *)

val to_list : t -> int list
(** The marked ids in discovery order (allocates; diagnostics/tests). *)

val reset : t -> unit
(** Unmark everything, O(count).  Queries reset on exit — including
    exceptional exit — so the scratch is always clean between queries. *)

val pivot_dists : t -> int -> float array
(** A reusable row of at least [m] floats for the pivot-distance cache.
    Contents are unspecified — the cache constructor re-initialises it.
    The row is owned by the scratch: at most one live cache per scratch. *)

val bit_row : t -> int -> Bytes.t
(** A reusable row of at least [m] bytes for per-query hash bits.
    Contents are unspecified — the caller overwrites before reading. *)

val margin_row : t -> int -> float array
(** A reusable row of at least [m] floats for per-bit flip margins
    (multi-probe path).  Contents are unspecified — the caller
    overwrites before reading. *)

val probe_seq : t -> Probe_seq.t
(** The scratch's reusable multi-probe workspace (penalty-sorted bits +
    probe heap) — like the other rows, single-domain and reused across
    sequential queries. *)

val with_local : (t -> 'a) -> 'a
(** [with_local f] runs [f] on the calling domain's scratch and resets
    it afterwards, on normal and exceptional exit alike.  When that
    scratch is already lent out — to another systhread of the same
    domain, or to an enclosing query on the same stack — [f] gets a
    fresh private scratch instead, so concurrent users never share
    one. *)
