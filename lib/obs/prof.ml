(* Obs.Prof — wall-clock sampling profiler (doc/PROFILING.md).

   A single tick thread (systhreads, not a domain: it spends its life in
   [Thread.delay] and must not occupy a core) wakes every [interval]
   seconds and snapshots the live span stack of every registered domain
   (Livestack).  Each non-empty snapshot becomes one sample, folded
   immediately into an aggregate table keyed by (route, sanitized
   stack), plus a bounded raw ring kept for Chrome-trace synthesis.

   Isolation rules, load-bearing for the byte-identity guarantee:
   - the tick thread NEVER touches the Obs registries (they are
     unsynchronized by design; worker domains own them under the
     caller's locking discipline).  All profiler state lives here,
     behind [mu].  Servers surface prof.samples/dropped/
     overhead_seconds as Obs series at scrape time, on a domain that
     already holds the registry lock.
   - the observed program is only ever READ.  The per-domain stack
     push/pop in Span.enter/exit stores pre-existing strings into a
     pre-allocated array — no allocation, no synchronization — so GC
     telemetry, φ search, labels and audit documents are unchanged by
     attaching (gated by the audit test "audit document, profiler on
     and off").

   Accounting: [samples] counts recorded stack snapshots; [dropped]
   counts raw samples evicted from the ring (their folded aggregate is
   retained — only Chrome-trace fidelity degrades); [overhead_seconds]
   accumulates wall time the tick thread spent actually sampling,
   excluding sleep — the profiler's own budget, surfaced so a regression
   in it is visible before it shows up as serve latency. *)

let default_interval = 0.010
let ring_capacity = 65536

type sample = { at : float; route : string; frames : string list }

type state = {
  mutable thread : Thread.t option;
  mutable stop : bool;
  mutable interval : float;
  (* (route, "f1;f2;...") -> sampled seconds (count x interval) *)
  folded_tbl : (string * string, float) Hashtbl.t;
  ring : sample Queue.t;
  mutable samples : int;
  mutable dropped : int;
  mutable overhead : float;
}

let st =
  {
    thread = None;
    stop = false;
    interval = default_interval;
    folded_tbl = Hashtbl.create 256;
    ring = Queue.create ();
    samples = 0;
    dropped = 0;
    overhead = 0.;
  }

let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let attached () = locked (fun () -> st.thread <> None)
let samples () = locked (fun () -> st.samples)
let dropped () = locked (fun () -> st.dropped)
let overhead_seconds () = locked (fun () -> st.overhead)
let interval () = locked (fun () -> st.interval)

let set_route = Livestack.set_route
let with_route = Livestack.with_route

let record_sample now (route, frames) =
  let frames = List.map Flame.clean_frame frames in
  let key = (route, String.concat ";" frames) in
  let prev = Option.value ~default:0. (Hashtbl.find_opt st.folded_tbl key) in
  Hashtbl.replace st.folded_tbl key (prev +. st.interval);
  if Queue.length st.ring >= ring_capacity then begin
    ignore (Queue.pop st.ring);
    st.dropped <- st.dropped + 1
  end;
  Queue.push { at = now; route; frames } st.ring;
  st.samples <- st.samples + 1

let tick () =
  let t0 = Prelude.Timer.wall () in
  let snaps = List.filter_map Livestack.snapshot (Livestack.all ()) in
  locked (fun () ->
      List.iter (record_sample t0) snaps;
      st.overhead <- st.overhead +. (Prelude.Timer.wall () -. t0))

let loop () =
  let rec go () =
    let stop_now = locked (fun () -> st.stop) in
    if not stop_now then begin
      Thread.delay (locked (fun () -> st.interval));
      let stop_now = locked (fun () -> st.stop) in
      if not stop_now then begin
        tick ();
        go ()
      end
    end
  in
  go ()

let attach ?(interval = default_interval) () =
  if interval <= 0. then invalid_arg "Obs.Prof.attach: interval must be > 0";
  let start =
    locked (fun () ->
        if st.thread <> None then
          invalid_arg "Obs.Prof.attach: sampler already attached";
        st.interval <- interval;
        st.stop <- false;
        true)
  in
  if start then begin
    (* stale frames can survive a detach mid-span (the matching pops run
       only while profiling is on); start from clean stacks *)
    Livestack.clear_all ();
    Atomic.set State.profiling true;
    let t = Thread.create loop () in
    locked (fun () -> st.thread <- Some t)
  end

let detach () =
  let t =
    locked (fun () ->
        let t = st.thread in
        st.stop <- true;
        st.thread <- None;
        t)
  in
  match t with
  | None -> ()
  | Some t ->
      Atomic.set State.profiling false;
      Thread.join t

let reset () =
  locked (fun () ->
      Hashtbl.reset st.folded_tbl;
      Queue.clear st.ring;
      st.samples <- 0;
      st.dropped <- 0;
      st.overhead <- 0.)

let routes () =
  locked (fun () ->
      let seen = Hashtbl.create 8 in
      Hashtbl.iter
        (fun (route, _) _ ->
          if route <> "" then Hashtbl.replace seen route ())
        st.folded_tbl;
      Hashtbl.fold (fun r () acc -> r :: acc) seen []
      |> List.sort String.compare)

let matches route_filter route =
  match route_filter with None -> true | Some r -> String.equal r route

let folded ?route () =
  locked (fun () ->
      let acc = Hashtbl.create 64 in
      Hashtbl.iter
        (fun (r, stack) secs ->
          if matches route r then begin
            let prev = Option.value ~default:0. (Hashtbl.find_opt acc stack) in
            Hashtbl.replace acc stack (prev +. secs)
          end)
        st.folded_tbl;
      Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let folded_text ?route () = Flame.to_string (folded ?route ())

(* Self time of a sampled stack belongs to its leaf (deepest) frame. *)
let top_self ?route () =
  let leaf stack =
    match String.rindex_opt stack ';' with
    | None -> stack
    | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)
  in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (stack, secs) ->
      let f = leaf stack in
      let prev = Option.value ~default:0. (Hashtbl.find_opt acc f) in
      Hashtbl.replace acc f (prev +. secs))
    (folded ?route ());
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, sa) (b, sb) ->
         match Float.compare sb sa with 0 -> String.compare a b | c -> c)

(* Raw ring samples as Timeline slices for Chrome-trace synthesis: a
   sample's frames become nested [at, at + interval) slices (equal
   intervals nest outermost-first under Flame/Perfetto containment
   rules), so one sample renders as one stack column of width
   [interval]. *)
let slices ?route () =
  let iv, samples =
    locked (fun () ->
        (st.interval, Queue.fold (fun acc s -> s :: acc) [] st.ring))
  in
  List.rev samples
  |> List.concat_map (fun s ->
         if matches route s.route then
           List.map
             (fun name ->
               { Timeline.name; start = s.at; stop = s.at +. iv })
             s.frames
         else [])
