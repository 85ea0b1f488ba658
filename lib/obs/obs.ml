module Json = Json
module Counter = Counter
module Gauge = Gauge
module Histogram = Histogram
module Span = Span
module Timeline = Timeline
module Report = Report
module Prometheus = Prometheus
module Scope = Scope
module Log = Log
module Flame = Flame

let set_enabled = State.set_enabled
let enabled = State.enabled

let reset () =
  if Atomic.get State.open_scopes > 0 then
    invalid_arg
      (Printf.sprintf
         "Obs.reset: %d request scope(s) open — resetting now would race \
          the domains running them and lose their pending merges; close \
          them first"
         (Atomic.get State.open_scopes));
  Sink.reset Sink.global;
  Gauge.reset_all ()
