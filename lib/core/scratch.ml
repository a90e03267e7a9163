(* Reusable per-query workspace.  The three pieces the query hot path
   used to allocate fresh every time — the seen mask, the candidate
   accumulator and the pivot-distance cache array — live here and are
   recycled: [reset] clears only the bytes actually touched, so a query
   over a million-object store that saw forty candidates pays for forty,
   not a million.  Queries take their domain's scratch ([with_local]). *)

type t = {
  mutable seen : Bytes.t;  (* one byte per store id; '\000' = unseen *)
  mutable buf : int array;  (* ids marked seen, in discovery order *)
  mutable len : int;
  mutable dists : float array;  (* pivot-distance workspace *)
  mutable bits : Bytes.t;  (* hash-bit workspace, one byte per distinct fn *)
  mutable margins : float array;  (* per-bit flip margins, one per distinct fn *)
  probe : Probe_seq.t;  (* reusable multi-probe heap *)
}

let create ?(capacity = 0) () =
  {
    seen = Bytes.make capacity '\000';
    buf = Array.make 64 0;
    len = 0;
    dists = [||];
    bits = Bytes.empty;
    margins = [||];
    probe = Probe_seq.create ();
  }

(* Invariant: every non-'\000' byte of [seen] is listed in [buf.(0..len)],
   so growth can discard the old mask — it is all zeroes after reset, and
   [ensure] is only called at query start, when the scratch is clean. *)
let ensure t n =
  if Bytes.length t.seen < n then t.seen <- Bytes.make n '\000'

let capacity t = Bytes.length t.seen

let mem t id = Bytes.unsafe_get t.seen id <> '\000'

let mark t id =
  if Bytes.unsafe_get t.seen id <> '\000' then false
  else begin
    Bytes.unsafe_set t.seen id '\001';
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    t.buf.(t.len) <- id;
    t.len <- t.len + 1;
    true
  end

let count t = t.len
let get t i = t.buf.(i)

let reset t =
  for i = 0 to t.len - 1 do
    Bytes.unsafe_set t.seen t.buf.(i) '\000'
  done;
  t.len <- 0

let to_list t = List.init t.len (fun i -> t.buf.(i))

(* Pivot-distance rows are nan-initialised by the cache constructor
   (Hash_family.cache_in), so handing out a dirty array is fine. *)
let pivot_dists t m =
  if Array.length t.dists < m then t.dists <- Array.make m nan;
  t.dists

(* Bit rows are fully overwritten before being read (Index.eval_bits),
   so a dirty buffer is fine here too. *)
let bit_row t m =
  if Bytes.length t.bits < m then t.bits <- Bytes.create m;
  t.bits

(* Margin rows likewise: the multi-probe path fills every slot it reads
   (Index.eval_margins) before handing penalties to the probe heap. *)
let margin_row t m =
  if Array.length t.margins < m then t.margins <- Array.make m 0.;
  t.margins

let probe_seq t = t.probe

(* One scratch per domain, lent to one query at a time.  The busy flag
   is atomic because systhreads share their domain's DLS: a second
   thread (or a re-entrant query from inside a distance) finds it taken
   and works on a fresh scratch instead of corrupting the first. *)
type slot = { owned : t; busy : bool Atomic.t }

let slot = Domain.DLS.new_key (fun () -> { owned = create (); busy = Atomic.make false })

let with_local f =
  let s = Domain.DLS.get slot in
  if Atomic.compare_and_set s.busy false true then
    Fun.protect
      ~finally:(fun () ->
        reset s.owned;
        Atomic.set s.busy false)
      (fun () -> f s.owned)
  else f (create ())
