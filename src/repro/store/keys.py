"""Content-hashed identities for :class:`~repro.sim.parallel.RunSpec`.

A spec's key must be (a) stable across processes and sessions — it is
what lets an interrupted sweep recognise its own completed work — and
(b) sensitive to anything that changes the simulation's *physics*:
workload identity, machine configuration, seed, and the result-shaping
flags.  Presentation-only state (``label``) and the free-form
``metadata`` dict are deliberately excluded, so relabelling a sweep axis
does not invalidate a checkpoint.

Keys are the first 24 hex digits of a SHA-256 over a canonical JSON
encoding (sorted keys, enums by value, dataclasses by field).  Workload
instances hash on their class plus constructor state (``vars()``), the
same identity the compiled-script cache uses; instances whose state is
not JSON-canonicalisable fall back to ``repr`` — stable for the
dataclass-style workloads this repo defines.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

__all__ = ["spec_fingerprint", "spec_key"]

#: Bump when the fingerprint layout changes, so stale stores never
#: satisfy a resume with results computed under different semantics.
_FINGERPRINT_VERSION = 1


def _canonical(obj: Any) -> Any:
    """Reduce config/workload state to JSON-encodable primitives."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _workload_identity(workload) -> Any:
    if isinstance(workload, str):
        return {"registry": workload}
    ident: dict[str, Any] = {
        "class": f"{type(workload).__module__}.{type(workload).__qualname__}",
    }
    try:
        ident["state"] = _canonical(dict(sorted(vars(workload).items())))
    except TypeError:
        ident["state"] = repr(workload)
    return ident


def _config_identity(config) -> dict[str, Any]:
    """The canonical config, with the fields it has since lost restored at
    their former defaults: no run read them, so a layout-v1 checkpoint
    written with the defaults still resumes."""
    ident = _canonical(config)
    ident["track_values"] = True
    ident["htm"]["max_retries"] = None
    ident["latency"]["non_mem_op"] = 1
    for level, cycles in (("l1", 3), ("l2", 15), ("l3", 50)):
        ident[level]["load_to_use_cycles"] = cycles
    return ident


def spec_fingerprint(spec) -> dict[str, Any]:
    """The canonical dict a spec's key hashes (exposed for debugging)."""
    return {
        "version": _FINGERPRINT_VERSION,
        "workload": _workload_identity(spec.workload),
        "config": _config_identity(spec.config),
        "seed": spec.seed,
        "txns_per_core": spec.txns_per_core,
        "check_atomicity": spec.check_atomicity,
        # Layout-v1 constants: detail-keeping results are never stored, so
        # no stored key ever depended on the spec's record_events (a flag
        # since removed) or record_detail.
        "record_events": False,
        "record_detail": True,
        "tolerate_violations": spec.tolerate_violations,
        "max_cycles": spec.max_cycles,
    }


def spec_key(spec) -> str:
    """Stable content hash of one spec (24 hex chars)."""
    payload = json.dumps(
        spec_fingerprint(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
