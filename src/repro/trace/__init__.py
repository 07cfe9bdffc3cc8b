"""Trace infrastructure: portable workload scripts.

* :mod:`repro.trace.scriptio` — serialize compiled per-core programs
  (:class:`repro.workloads.base.CoreScript`) to a compact, versioned JSON
  format and load them back.  A saved script file pins an experiment's
  *exact* program independent of generator code drift — the trace-driven
  mode of the reproduction.

Per-access events of a run are recorded by a JSONL event trace
(``config.with_telemetry(sink="trace", trace_path=..., trace_accesses=True)``)
and read back by :mod:`repro.analysis.trace`.
"""

from repro.trace.scriptio import load_scripts, save_scripts, scripts_digest

__all__ = [
    "load_scripts",
    "save_scripts",
    "scripts_digest",
]
