(* The one representation of observed metrics.

   A sink holds a cell per counter, span and histogram, indexed by the
   dense slot [make] gives each name, plus a bounded ring of timeline
   slices.  There are two kinds of instance: the process-global sink,
   which the stats document, /metrics and every reader render, and the
   fresh sink each request scope (Obs.Scope) creates.  One DLS key names
   the calling domain's current sink (the global one unless the domain
   is inside a scope's run), so every hook — global or scoped — resolves
   it once and writes a cell by slot, with no per-call name hashing.
   [merge] folds a scope's sink into the global one when the scope
   closes: counter adds by sum, peaks by max, span totals, entry counts
   and GC deltas by sum, histogram buckets pointwise — all associative,
   so totals do not depend on whether a scope interposed.  Slices are
   not merged: a scope's slices stay with its summary. *)

type gc_totals = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

let gc_zero = { minor_words = 0.; promoted_words = 0.; major_words = 0. }

(* The calling domain's own allocation so far, exact: Gc.quick_stat
   would sum every domain's counters, and lag.  Minor words come from
   Gc.minor_words, as the minor count of Gc.counters is not exact. *)
let gc_now () =
  let _, promoted_words, major_words = Gc.counters () in
  { minor_words = Gc.minor_words (); promoted_words; major_words }

(* [acc] plus the calling domain's allocation since [since] = gc_now () *)
let gc_add_since acc since =
  let now = gc_now () in
  {
    minor_words = acc.minor_words +. (now.minor_words -. since.minor_words);
    promoted_words =
      acc.promoted_words +. (now.promoted_words -. since.promoted_words);
    major_words = acc.major_words +. (now.major_words -. since.major_words);
  }

(* A counter keeps its additive part and its high-water part apart
   (Counter exposes both [add] and [record_max], and they merge
   differently); its value is the larger of the two, which is the
   running total for an added counter and the peak for a recorded one. *)
type counter = { c_name : string; mutable adds : int; mutable peak : int }

type span = {
  s_name : string;
  mutable total : float; (* accumulated wall seconds, outermost entries *)
  mutable entries : int; (* completed outermost entries *)
  mutable depth : int; (* live nesting depth (recursive re-entry) *)
  mutable started : float; (* wall clock of the outermost enter *)
  (* [gc_now] at the outermost enter, and the deltas accumulated over
     completed outermost entries: the entering domain's own allocation *)
  mutable gc_at_enter : gc_totals;
  mutable gc : gc_totals;
}

(* Histogram cells share one fixed bucket layout (Histogram), which is
   what makes them merge exactly. *)
let nbuckets = 144

type hist = {
  h_name : string;
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

type snapshot = {
  s_buckets : (int * int) list;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
}

let snapshot c =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if c.counts.(i) > 0 then buckets := (i, c.counts.(i)) :: !buckets
  done;
  {
    s_buckets = !buckets;
    s_count = c.n;
    s_sum = c.sum;
    s_min = c.mn;
    s_max = c.mx;
  }

(* a registered metric of any kind: its name and the slot its cell has
   in every sink *)
type id = { name : string; slot : int }

type slice = { name : string; start : float; stop : float }

(* Timeline slices are kept as parallel columns, the times unboxed, in
   a circular buffer that doubles as it fills, up to [capacity]: a whole
   run's timeline (flame -w keeps every slice) costs three words a
   slice.  Slice [j], oldest first, sits at [(head + j) mod size]. *)
type t = {
  mutable counters : counter array; (* by slot; [no_counter] if unset *)
  mutable spans : span array;
  mutable hists : hist array;
  mutable names : string array;
  mutable starts : Float.Array.t;
  mutable stops : Float.Array.t;
  mutable head : int;
  mutable len : int;
  mutable capacity : int; (* slice bound; the oldest is dropped past it *)
  mutable dropped : int;
}

let create ~capacity =
  {
    counters = [||];
    spans = [||];
    hists = [||];
    names = [||];
    starts = Float.Array.make 0 0.;
    stops = Float.Array.make 0 0.;
    head = 0;
    len = 0;
    capacity;
    dropped = 0;
  }

(* The global ring records no slice until a caller asks for them:
   flame -w sets an unbounded capacity; nothing else reads it. *)
let global = create ~capacity:0
let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> global)
let[@inline] current () = Domain.DLS.get key
let install s = Domain.DLS.set key s

(* Cells are created on first touch.  An unset slot holds its kind's
   placeholder, which is never written: the accessor replaces it. *)
let no_counter = { c_name = ""; adds = 0; peak = 0 }

let zero_span name =
  {
    s_name = name;
    total = 0.;
    entries = 0;
    depth = 0;
    started = 0.;
    gc_at_enter = gc_zero;
    gc = gc_zero;
  }

let no_span = zero_span ""

let empty_hist name =
  {
    h_name = name;
    counts = Array.make nbuckets 0;
    n = 0;
    sum = 0.;
    mn = infinity;
    mx = neg_infinity;
  }

let no_hist = { (empty_hist "") with counts = [||] }

(* [cells] with room for slot [i], unset slots filled with [none] *)
let grow cells i none =
  let a = Array.make (max (i + 1) (2 * Array.length cells)) none in
  Array.blit cells 0 a 0 (Array.length cells);
  a

let[@inline never] add_counter s i name =
  if i >= Array.length s.counters then
    s.counters <- grow s.counters i no_counter;
  let c = { c_name = name; adds = 0; peak = 0 } in
  s.counters.(i) <- c;
  c

let[@inline never] add_span s i name =
  if i >= Array.length s.spans then s.spans <- grow s.spans i no_span;
  let c = zero_span name in
  s.spans.(i) <- c;
  c

let[@inline never] add_hist s i name =
  if i >= Array.length s.hists then s.hists <- grow s.hists i no_hist;
  let c = empty_hist name in
  s.hists.(i) <- c;
  c

(* the cell of slot [i] (registered as [name]) in [s], created at zero *)
let[@inline] counter_at s i name =
  let a = s.counters in
  let c = if i < Array.length a then Array.unsafe_get a i else no_counter in
  if c != no_counter then c else add_counter s i name

let[@inline] span_at s i name =
  let a = s.spans in
  let c = if i < Array.length a then Array.unsafe_get a i else no_span in
  if c != no_span then c else add_span s i name

let[@inline] hist_at s i name =
  let a = s.hists in
  let c = if i < Array.length a then Array.unsafe_get a i else no_hist in
  if c != no_hist then c else add_hist s i name

(* The cell of [m] in the global sink, and in the calling domain's
   current sink: a hook's one call into this module. *)
let counter (m : id) = counter_at global m.slot m.name
let span (m : id) = span_at global m.slot m.name
let hist (m : id) = hist_at global m.slot m.name
let current_counter (m : id) = counter_at (current ()) m.slot m.name
let current_span (m : id) = span_at (current ()) m.slot m.name
let current_hist (m : id) = hist_at (current ()) m.slot m.name

(* [make] of every kind: the id [tbl] holds for [name], or a new one with
   the next slot, whose global cell [cell] creates *)
let register tbl cell name =
  match Hashtbl.find_opt tbl name with
  | Some m -> m
  | None ->
      let m : id = { name; slot = Hashtbl.length tbl } in
      Hashtbl.replace tbl name m;
      ignore (cell m);
      m

(* the buffer position of slice [j], oldest first *)
let[@inline] slice_index s j = (s.head + j) mod Array.length s.names

let drop_oldest s =
  s.head <- slice_index s 1;
  s.len <- s.len - 1;
  s.dropped <- s.dropped + 1

(* room for one more slice: the buffer, in order from position 0, at
   twice its size (at most [capacity]) *)
let grow_slices s =
  let size = min s.capacity (max 16 (2 * Array.length s.names)) in
  let names = Array.make size "" in
  let starts = Float.Array.make size 0. and stops = Float.Array.make size 0. in
  for j = 0 to s.len - 1 do
    let i = slice_index s j in
    names.(j) <- s.names.(i);
    Float.Array.set starts j (Float.Array.get s.starts i);
    Float.Array.set stops j (Float.Array.get s.stops i)
  done;
  s.names <- names;
  s.starts <- starts;
  s.stops <- stops;
  s.head <- 0

(* append, dropping (and counting) the oldest slice at capacity *)
let push_slice s name ~start ~stop =
  if s.capacity > 0 then begin
    if s.len >= s.capacity then drop_oldest s;
    if s.len = Array.length s.names then grow_slices s;
    let i = slice_index s s.len in
    s.names.(i) <- name;
    Float.Array.set s.starts i start;
    Float.Array.set s.stops i stop;
    s.len <- s.len + 1
  end

let set_capacity s n =
  s.capacity <- n;
  while s.len > n do
    drop_oldest s
  done

let merge ~into src =
  Array.iteri
    (fun i (c : counter) ->
      if c != no_counter then begin
        let d = counter_at into i c.c_name in
        d.adds <- d.adds + c.adds;
        if c.peak > d.peak then d.peak <- c.peak
      end)
    src.counters;
  Array.iteri
    (fun i (c : span) ->
      if c != no_span then begin
        let d = span_at into i c.s_name in
        d.total <- d.total +. c.total;
        d.entries <- d.entries + c.entries;
        d.gc <-
          {
            minor_words = d.gc.minor_words +. c.gc.minor_words;
            promoted_words = d.gc.promoted_words +. c.gc.promoted_words;
            major_words = d.gc.major_words +. c.gc.major_words;
          }
      end)
    src.spans;
  Array.iteri
    (fun i (c : hist) ->
      if c != no_hist then begin
        let d = hist_at into i c.h_name in
        for b = 0 to nbuckets - 1 do
          d.counts.(b) <- d.counts.(b) + c.counts.(b)
        done;
        d.n <- d.n + c.n;
        d.sum <- d.sum +. c.sum;
        if c.mn < d.mn then d.mn <- c.mn;
        if c.mx > d.mx then d.mx <- c.mx
      end)
    src.hists

let clear_slices s =
  s.names <- [||];
  s.starts <- Float.Array.make 0 0.;
  s.stops <- Float.Array.make 0 0.;
  s.head <- 0;
  s.len <- 0;
  s.dropped <- 0

(* Resets replace each cell by a zero one (registration survives); a
   span entered across the reset loses that activation. *)
let zero none fresh = Array.map (fun c -> if c == none then c else fresh c)

let reset_counters s =
  s.counters <-
    zero no_counter (fun c -> { c with adds = 0; peak = 0 }) s.counters

let reset_hists s =
  s.hists <- zero no_hist (fun c -> empty_hist c.h_name) s.hists

let reset s =
  reset_counters s;
  s.spans <- zero no_span (fun c -> zero_span c.s_name) s.spans;
  reset_hists s;
  clear_slices s

(* The cells [s] holds, sorted by name: every registered metric for the
   global sink (make creates its cell there), the touched ones for a
   scope's. *)
let cells none name_of arr =
  Array.fold_left (fun acc c -> if c != none then c :: acc else acc) [] arr
  |> List.sort (fun a b -> String.compare (name_of a) (name_of b))

let counters s =
  List.map
    (fun c -> (c.c_name, max c.adds c.peak))
    (cells no_counter (fun c -> c.c_name) s.counters)

let spans s =
  List.map
    (fun c -> (c.s_name, c.total, c.entries, c.gc))
    (cells no_span (fun c -> c.s_name) s.spans)

let histograms s =
  List.map
    (fun c -> (c.h_name, snapshot c))
    (cells no_hist (fun c -> c.h_name) s.hists)

let slices s =
  List.init s.len (fun j ->
      let i = slice_index s j in
      {
        name = s.names.(i);
        start = Float.Array.get s.starts i;
        stop = Float.Array.get s.stops i;
      })
