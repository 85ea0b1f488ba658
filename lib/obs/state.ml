(* Global observability switch.  Kept in its own (unexported) module so the
   hot-path hooks in Counter/Span/Histogram can read one ref without a
   module cycle through Obs. *)

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* the hot-path spelling: a single load + branch *)
let on () = !enabled_flag

(* Open request scopes (Obs.Scope): created, not yet closed.  [reset]
   is only sound when this is zero — a worker could otherwise still be
   writing into a scope's sink that the reset cannot see
   (doc/OBSERVABILITY.md §Reset). *)
let open_scopes = Atomic.make 0

(* Sampling-profiler switch (Obs.Prof): while true, Span.enter/exit
   additionally maintain the per-domain live frame stacks the tick
   thread reads (Livestack, doc/PROFILING.md).  An Atomic so worker
   domains observe an attach promptly; the hot-path cost while detached
   is one load and one branch, mirroring [on].  [reset] refuses while
   the sampler is attached: the tick thread is concurrently reading
   span state the reset would clear under it. *)
let profiling = Atomic.make false
let profiling_on () = Atomic.get profiling
