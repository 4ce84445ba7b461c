(* Frames form an intrusive doubly-linked LRU list (indices into the
   frame arrays). [head] is most recently used, [tail] least. *)

(* Global counters next to the per-pool stats, for experiments that
   read across every pool a run creates.  Hits, misses, evictions,
   writebacks and I/O retries are hot events counted by [Probe]; the
   rest are rare. *)
let c_pinned_evictions = Telemetry.counter "pool.pinned_evictions"
let c_flushes = Telemetry.counter "pool.flushes"
let c_exhausted = Telemetry.counter "pool.exhausted"

(* a frame's dirty state, see [t] *)
let clean = '\000'
let queued = '\001'
let stale = '\002'

type replacement = [ `Lru | `Fifo ]

type t = {
  dev : Device.t;
  pin : int -> bool;
  replacement : replacement;
  (* Every public entry point serialises on [lock], so one pool can be
     shared by parallel domains: paged reads race on the frame table,
     the LRU list and the stats, and the lock makes those writes
     domain-safe (certified by spine-lint L9).  The lock is reentrant
     per domain ([lock_owner]/[lock_depth]) because [with_page] runs
     its callback under the lock and callbacks — the writeback hook, a
     trace router — may legitimately land back in the pool. *)
  lock : Mutex.t;
  mutable lock_owner : int;     (* Domain.self of the holder, -1 = free *)
  mutable lock_depth : int;
  frames : int;
  buffers : Bytes.t array;
  page_of : int array;          (* frame -> page id, -1 = free *)
  free : int array;             (* stack of free frames, [0, n_free) *)
  mutable n_free : int;
  (* Frame [f] is dirty when [state.[f] = queued].  Every frame that
     went clean -> dirty is in [dirty_q.(0 .. n_queued - 1)], once;
     one written back since is [stale] there until [dirty_frames]
     drops it, and a frame not in the queue is [clean].  So a flush
     costs O(frames dirtied since the last one), not O(frames), and the
     state takes a byte per frame. *)
  state : Bytes.t;
  dirty_q : int array;
  mutable n_queued : int;
  in_use : int array;           (* reentrancy latch count per frame *)
  prev : int array;
  next : int array;
  mutable head : int;
  mutable tail : int;
  table : int Xutil.Int_tbl.t;  (* page id -> frame *)
  mutable on_writeback : (int -> unit) option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable pinned_evictions : int;
  mutable writebacks : int;
}

let create ?(pin = fun _ -> false) ?(replacement = `Lru) ~frames dev =
  if frames < 1 then invalid_arg "Buffer_pool.create: frames < 1";
  let page_size = Device.page_size dev in
  { dev; pin; replacement; frames;
    lock = Mutex.create (); lock_owner = -1; lock_depth = 0;
    buffers = Array.init frames (fun _ -> Bytes.make page_size '\000');
    page_of = Array.make frames (-1);
    (* lowest frame on top, so frames fill in index order *)
    free = Array.init frames (fun i -> frames - 1 - i);
    n_free = frames;
    state = Bytes.make frames clean;
    dirty_q = Array.make frames 0;
    n_queued = 0;
    in_use = Array.make frames 0;
    prev = Array.make frames (-1);
    next = Array.make frames (-1);
    head = -1; tail = -1;
    table = Xutil.Int_tbl.create (2 * frames);
    on_writeback = None;
    hits = 0; misses = 0; evictions = 0; pinned_evictions = 0;
    writebacks = 0 }

let device t = t.dev
let frames t = t.frames

let[@inline] is_dirty t f = Bytes.get t.state f = queued

let mark_dirty t f =
  let s = Bytes.get t.state f in
  if s <> queued then begin
    if s = clean then begin
      t.dirty_q.(t.n_queued) <- f;
      t.n_queued <- t.n_queued + 1
    end;
    Bytes.set t.state f queued
  end

let mark_clean t f = if is_dirty t f then Bytes.set t.state f stale

(* reentrant per-domain critical section around the pool's mutable
   innards; [lock_owner] is only compared against the caller's own
   domain id, so a stale read of another domain's id cannot match.
   Every page access passes through here, so the release is a plain
   match rather than a [Fun.protect] closure. *)
let leave t =
  t.lock_depth <- t.lock_depth - 1;
  if t.lock_depth = 0 then begin
    t.lock_owner <- -1;
    Mutex.unlock t.lock
  end

let locked t f =
  let me = (Domain.self () :> int) in
  if t.lock_owner = me then t.lock_depth <- t.lock_depth + 1
  else begin
    Mutex.lock t.lock;
    t.lock_owner <- me;
    t.lock_depth <- 1
  end;
  match f () with
  | r ->
    leave t;
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    leave t;
    Printexc.raise_with_backtrace e bt

let set_writeback_hook t h = locked t (fun () -> t.on_writeback <- h)

(* The only retry loop for transient I/O errors (the kind the fault
   injector scripts): every page fill, dirty writeback, metadata write
   and journal write goes through here, and a retry re-runs one page
   operation, so it is idempotent, writes included.  Anything else —
   permanent errors, corruption — passes straight through.  There is
   no backoff sleep: the injector counts operations, not time, and
   each retry re-runs the device operation, which charges its own
   simulated cost.  A retry is new work, so it first honours the
   ambient deadline: a storm of transient errors fails typed
   ([Timeout]) once the budget is spent instead of running out its
   attempts. *)
let max_io_attempts = 16

(* [e] failed attempt [attempt] of [f] on [page]: retry while the
   budget lasts, or re-raise. *)
let rec retry_after page attempt e f =
  match e with
  | Spine_error.Error (Spine_error.Io_failed { transient = true; _ })
    when attempt < max_io_attempts -> begin
      Deadline.check ();
      Probe.add Probe.io_retry 1;
      if Trace.on () then
        Trace.instant "pool.io_retry"
          [ Trace.Int ("page", page); Trace.Int ("attempt", attempt) ];
      match f () with
      | r -> r
      | exception e -> retry_after page (attempt + 1) e f
    end
  | e -> raise e

let with_io_retries page f =
  match f () with r -> r | exception e -> retry_after page 1 e f

(* Longest run handed to the device at once, which bounds its staging
   buffer. *)
let max_run_pages = 64

let iter_runs n ~page f =
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && !j - !i < max_run_pages && page !j = page (!j - 1) + 1 do
      incr j
    done;
    f !i (!j - !i);
    i := !j
  done

(* The run form: one positioned write for the whole run while nothing
   fails.  A page whose write fails counts that as its first attempt
   and goes on page by page, every later page of the run too, each
   with the budget above.  [written k] follows each page that is
   stored, in order, so a caller knows how far a failed run got. *)
let run_pages ~written dev page datas =
  let n = Array.length datas in
  match Device.write_run dev page datas with
  | Ok () -> for k = 0 to n - 1 do written k done
  | Error (k, e) ->
    for j = 0 to k - 1 do written j done;
    let write j () = Device.write dev (page + j) datas.(j) in
    retry_after (page + k) 1 e (write k);
    written k;
    for j = k + 1 to n - 1 do
      with_io_retries (page + j) (write j);
      written j
    done

(* Only one run's pages are copied at a time. *)
let write_pages ?(pos = 0) ?len dev page src =
  let len = Option.value len ~default:(Bytes.length src - pos) in
  let ps = Device.page_size dev in
  iter_runs ((len + ps - 1) / ps) ~page:(fun k -> page + k) (fun i n ->
      run_pages ~written:ignore dev (page + i)
        (Array.init n (fun k ->
             let off = (i + k) * ps in
             let b = Bytes.make ps '\000' in
             Bytes.blit src (pos + off) b 0 (Int.min ps (len - off));
             b)))

let unlink t f =
  let p = t.prev.(f) and n = t.next.(f) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p;
  t.prev.(f) <- -1;
  t.next.(f) <- -1

let push_front t f =
  t.prev.(f) <- -1;
  t.next.(f) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- f;
  t.head <- f;
  if t.tail < 0 then t.tail <- f

let touch t f =
  if t.head <> f then begin
    unlink t f;
    push_front t f
  end

(* A frame's image is on the device: it is clean, and counts as one
   writeback. *)
let written t f =
  mark_clean t f;
  t.writebacks <- t.writebacks + 1;
  Probe.add Probe.pool_writeback 1

(* Write back dirty frames [fs], which hold consecutive pages, as one
   device run.  The hook runs for every page before any of them is
   written, so a transaction layer can journal each page's current
   on-disk image first (see Spine.Persistent); if it raises on one,
   the pages before it are written and the rest stay dirty, as
   page-at-a-time writebacks would leave them. *)
let writeback_run t fs =
  let n = Array.length fs in
  let page = t.page_of.(fs.(0)) in
  let hooked = ref 0 in
  let failure =
    match t.on_writeback with
    | None -> hooked := n; None
    | Some h ->
      (try
         Array.iter (fun f -> h t.page_of.(f); incr hooked) fs;
         None
       with e -> Some (e, Printexc.get_raw_backtrace ()))
  in
  if !hooked > 0 then begin
    let fs = if !hooked = n then fs else Array.sub fs 0 !hooked in
    run_pages ~written:(fun k -> written t fs.(k)) t.dev page
      (Array.map (fun f -> t.buffers.(f)) fs)
  end;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure

let writeback t f = if is_dirty t f then writeback_run t [| f |]

(* Choose a victim frame: least-recently-used unpinned, falling back to
   least-recently-used pinned when everything resident is pinned. Frames
   latched by a reentrant [with_page] are never victims. *)
let find_victim t =
  let rec scan f fallback =
    if f < 0 then fallback
    else if t.in_use.(f) > 0 then scan t.prev.(f) fallback
    else if not (t.pin t.page_of.(f)) then Some f
    else
      scan t.prev.(f)
        (match fallback with None -> Some f | Some _ -> fallback)
  in
  match scan t.tail None with
  | Some f -> f
  | None ->
    (* Degrade gracefully before giving up: push dirty frames back to
       the device (a latched frame stays resident but need not stay
       dirty) and rescan in case a latch was released by the writeback
       path.  Only then raise the typed error with the evidence. *)
    for f = 0 to t.frames - 1 do
      if t.page_of.(f) >= 0 then writeback t f
    done;
    (match scan t.tail None with
     | Some f -> f
     | None ->
       let latched = ref 0 in
       for f = 0 to t.frames - 1 do
         if t.in_use.(f) > 0 then incr latched
       done;
       Telemetry.incr c_exhausted;
       Spine_error.raise_error
         (Spine_error.Pool_exhausted { frames = t.frames; latched = !latched }))

(* [free] holds exactly the frames with [page_of = -1]: [drop] refills
   it and a failed miss read pushes its claimed frame back, so a miss
   on a full pool goes straight to [find_victim]. *)
let release_frame t f =
  t.page_of.(f) <- -1;
  mark_clean t f;
  t.free.(t.n_free) <- f;
  t.n_free <- t.n_free + 1

let frame_for t page =
  match Xutil.Int_tbl.find_opt t.table page with
  | Some f ->
    t.hits <- t.hits + 1;
    Probe.add Probe.pool_hit 1;
    (match t.replacement with `Lru -> touch t f | `Fifo -> ());
    f
  | None ->
    t.misses <- t.misses + 1;
    Probe.add Probe.pool_miss 1;
    (* the fault span covers victim selection, the eviction writeback
       and the device read — everything the miss made the caller pay *)
    let tr = Trace.on () in
    if tr then Trace.begin_span "pool.fault" [ Trace.Int ("page", page) ];
    let f =
      if t.n_free > 0 then begin
        t.n_free <- t.n_free - 1;
        t.free.(t.n_free)
      end
      else begin
        let victim = find_victim t in
        if t.pin t.page_of.(victim) then begin
          (* every resident page was pinned: the policy's fallback *)
          t.pinned_evictions <- t.pinned_evictions + 1;
          Telemetry.incr c_pinned_evictions
        end;
        if tr then
          Trace.instant "pool.evict"
            [ Trace.Int ("page", t.page_of.(victim));
              Trace.Int ("dirty", if is_dirty t victim then 1 else 0) ];
        writeback t victim;
        Xutil.Int_tbl.remove t.table t.page_of.(victim);
        t.evictions <- t.evictions + 1;
        Probe.add Probe.pool_eviction 1;
        unlink t victim;
        victim
      end
    in
    (match with_io_retries page (fun () -> Device.read t.dev page) with
     | data ->
       Bytes.blit data 0 t.buffers.(f) 0 (Bytes.length data)
     | exception e ->
       (* the frame was already claimed (victim evicted / free slot
          taken); release it so a failed read cannot leak frames *)
       release_frame t f;
       if tr then Trace.end_span ();
       raise e);
    t.page_of.(f) <- page;
    Xutil.Int_tbl.replace t.table page f;
    push_front t f;
    if tr then Trace.end_span ();
    f

let with_page t page ~dirty f =
  (* the cooperative deadline check: a paged query that overruns its
     armed budget fails typed here, before latching another frame *)
  Deadline.check ();
  locked t (fun () ->
      let frame = frame_for t page in
      t.in_use.(frame) <- t.in_use.(frame) + 1;
      let result =
        try f t.buffers.(frame)
        with e ->
          t.in_use.(frame) <- t.in_use.(frame) - 1;
          raise e
      in
      t.in_use.(frame) <- t.in_use.(frame) - 1;
      if dirty then mark_dirty t frame;
      result)

(* the dirty frames, in page order; the stale entries leave the queue *)
let dirty_frames t =
  let n = ref 0 in
  for i = 0 to t.n_queued - 1 do
    let f = t.dirty_q.(i) in
    if is_dirty t f then begin
      t.dirty_q.(!n) <- f;
      incr n
    end
    else Bytes.set t.state f clean
  done;
  t.n_queued <- !n;
  let fs = Array.sub t.dirty_q 0 !n in
  Array.sort (fun a b -> Int.compare t.page_of.(a) t.page_of.(b)) fs;
  fs

let dirty_pages t =
  locked t (fun () -> Array.map (fun f -> t.page_of.(f)) (dirty_frames t))

let flush t =
  locked t (fun () ->
      Telemetry.incr c_flushes;
      (* write back in page order, as any real writeback elevator
         would, one device run per stretch of consecutive pages *)
      let fs = dirty_frames t in
      iter_runs (Array.length fs) ~page:(fun k -> t.page_of.(fs.(k)))
        (fun i n -> writeback_run t (Array.sub fs i n)))

let drop t =
  locked t (fun () ->
      flush t;
      Xutil.Int_tbl.reset t.table;
      Array.fill t.page_of 0 t.frames (-1);
      Bytes.fill t.state 0 t.frames clean;
      t.n_queued <- 0;
      for i = 0 to t.frames - 1 do t.free.(i) <- t.frames - 1 - i done;
      t.n_free <- t.frames;
      Array.fill t.prev 0 t.frames (-1);
      Array.fill t.next 0 t.frames (-1);
      t.head <- -1;
      t.tail <- -1)

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0; t.misses <- 0; t.evictions <- 0;
      t.pinned_evictions <- 0; t.writebacks <- 0)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  pinned_evictions : int;
  writebacks : int;
}

let stats (t : t) =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses;
        evictions = t.evictions; pinned_evictions = t.pinned_evictions;
        writebacks = t.writebacks })
