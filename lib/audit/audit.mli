(** Evidence-producing audit layer ([doc/AUDIT.md]).

    {!build} turns one synthesis result into a versioned, self-contained
    JSON document ([turbosyn-audit/2]) carrying three kinds of evidence:

    - a {e lower-bound certificate}: a concrete critical loop of the
      mapped netlist (node list, edges, total delay, total registers,
      exact rational ratio) — no retiming of that netlist can clock
      faster than [ceil] of its ratio;
    - an {e upper-bound witness}: the mapped netlist plus the retiming /
      pipelining lag vector that actually achieves the claimed clock
      period;
    - {e label provenance}: for every gate, which mechanism (cut test,
      snapshot reuse, recorded cut, or decomposition rescue) justified
      its final label, with the cut and its exact height.

    {!verify} re-checks a document {e independently}: it never calls the
    label engine.  The certificate is re-validated edge by edge against
    the serialized netlist plus the [Cycle_ratio.exceeds] oracle, the
    witness by replaying the retiming and measuring the resulting clock
    period, functional correctness by simulation, and the provenance
    against the converged-fixpoint invariant
    [L(v) <= l(v) <= max(1, L(v) + 1)] and per-cut arithmetic recomputed
    from the document alone. *)

module Circuit_json = Circuit_json
module Diff = Diff

val schema_version : string
(** ["turbosyn-audit/2"]. *)

val build :
  source:Circuit.Netlist.t ->
  options:Turbosyn.Synth.options ->
  Turbosyn.Synth.result ->
  (Obs.Json.t, string) result
(** Assemble the audit document for a synthesis result on [source].
    [Error] when the result carries no realization (no lag vector), or
    the mapped netlist has a combinational loop. *)

type check = {
  c_name : string;
  c_ok : bool;
  c_detail : string;  (** first offending fact when [not c_ok] *)
}

type verdict = { v_ok : bool; v_checks : check list }

val verify : ?seed:int -> Obs.Json.t -> (verdict, string) result
(** Independently re-check a [turbosyn-audit/2] document.  [Error] on a
    structurally malformed document (missing members, undecodable
    netlists); [Ok] with per-check verdicts otherwise.  [seed] drives
    the simulation-based equivalence check (default 7, matching the
    CLI's [--verify]). *)

val render_verdict : verdict -> string
(** One PASS/FAIL line per check plus a final ACCEPTED/REJECTED line. *)

val equal_documents : Obs.Json.t -> Obs.Json.t -> (unit, string) result
(** Structural equality of two JSON documents with diagnosis: [Ok ()]
    when equal, [Error "<path>: <difference>"] naming the first
    differing path (e.g. ["$.labels[3]: 2 <> 5/2"]) otherwise.  The
    byte-identity oracle (doc/PROFILING.md): audit documents built from
    runs that differ only in whether the sampling profiler was attached
    must compare [Ok]. *)
