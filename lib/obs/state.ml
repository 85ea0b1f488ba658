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
