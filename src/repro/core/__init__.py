"""The paper's contribution: speculative sub-blocking conflict detection.

Sub-blocking divides each 64-byte cache line into N equal sub-blocks and
keeps the two-bit Table I state per sub-block::

    SPEC WR   state
    0    0    Non-speculative
    0    1    Dirty              (remote transaction wrote it; data unreliable)
    1    0    Speculative Read   (S-RD)
    1    1    Speculative Write  (S-WR)

Conflicts are then detected at sub-block granularity while the MOESI
protocol itself is untouched — only a few piggy-back bits ride on existing
data responses, and both machines carry them as a plain integer mask.
See :mod:`repro.core.subblock` for the detector,
:mod:`repro.core.subblock_state` for the encoding/transition functions,
:mod:`repro.core.perfect` for the idealised zero-false-conflict upper
bound, and :mod:`repro.core.overhead` for the Section IV-E hardware cost
model.

Submodule attributes are resolved lazily, so building a detector does
not load the cost model.
"""

from typing import TYPE_CHECKING

__all__ = [
    "CoherenceDecouplingDetector",
    "OverheadModel",
    "PerfectDetector",
    "SubblockDetector",
    "SubblockState",
    "TABLE1_ROWS",
    "decode_state",
    "encode_state",
]

if TYPE_CHECKING:  # pragma: no cover - typing-time only
    from repro.core.decoupled import CoherenceDecouplingDetector
    from repro.core.overhead import OverheadModel
    from repro.core.perfect import PerfectDetector
    from repro.core.subblock import SubblockDetector
    from repro.core.subblock_state import (
        SubblockState,
        TABLE1_ROWS,
        decode_state,
        encode_state,
    )

_EXPORTS = {
    "CoherenceDecouplingDetector": "repro.core.decoupled",
    "OverheadModel": "repro.core.overhead",
    "PerfectDetector": "repro.core.perfect",
    "SubblockDetector": "repro.core.subblock",
    "SubblockState": "repro.core.subblock_state",
    "TABLE1_ROWS": "repro.core.subblock_state",
    "decode_state": "repro.core.subblock_state",
    "encode_state": "repro.core.subblock_state",
}


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
