"""Portable serialization of compiled workload scripts.

Format (versioned, line-oriented JSON for diff-friendliness):

.. code-block:: text

    {"format": "repro-script", "version": 1, "n_cores": 8, ...}   # header
    {"core": 0, "txns": [[gap, aborts, [["R", addr, size], ...]], ...]}
    ...one line per core...

Operations are encoded ``["R"|"W", addr, size]`` and ``["C", cycles]``.
A digest of the op stream lets experiments assert they replayed the exact
program a result was produced from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import WorkloadError
from repro.htm.ops import TxnOp, read_op, work_op, write_op
from repro.workloads.base import CoreScript, ScriptedTxn

__all__ = ["load_scripts", "save_scripts", "scripts_digest"]

FORMAT_NAME = "repro-script"
FORMAT_VERSION = 1


def _encode_op(op: TxnOp) -> list:
    is_mem, addr, size, is_write, cycles = op
    if not is_mem:
        return ["C", cycles]
    return ["W" if is_write else "R", addr, size]


def _decode_op(raw: list) -> TxnOp:
    match raw:
        case ["R", addr, size]:
            return read_op(int(addr), int(size))
        case ["W", addr, size]:
            return write_op(int(addr), int(size))
        case ["C", cycles]:
            return work_op(int(cycles))
    raise WorkloadError(f"malformed op record: {raw!r}")


def save_scripts(
    scripts: list[CoreScript],
    path: str | Path,
    metadata: dict | None = None,
) -> None:
    """Write compiled scripts to ``path`` (creates parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_cores": len(scripts),
        "digest": scripts_digest(scripts),
        "metadata": metadata or {},
    }
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for cs in scripts:
            row = {
                "core": cs.core,
                "txns": [
                    [t.gap_cycles, t.user_abort_attempts,
                     [_encode_op(op) for op in t.ops]]
                    for t in cs.txns
                ],
            }
            fh.write(json.dumps(row) + "\n")


def load_scripts(path: str | Path) -> list[CoreScript]:
    """Load scripts written by :func:`save_scripts`; verifies the digest.

    Malformed input raises :class:`WorkloadError` naming the file and line.
    """
    path = Path(path)
    n_cores = digest = None
    scripts: list[CoreScript] = []
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise WorkloadError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            if lineno > 1 and not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise WorkloadError("not a JSON object")
                if lineno > 1:
                    scripts.append(_decode_row(record))
                elif record.get("format") != FORMAT_NAME:
                    raise WorkloadError(f"not a {FORMAT_NAME} file")
                elif record.get("version") != FORMAT_VERSION:
                    raise WorkloadError(f"unsupported version {record.get('version')}")
                else:
                    n_cores, digest = int(record["n_cores"]), record["digest"]
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"{path}:{lineno}: not JSON ({exc.msg})") from None
            except KeyError as exc:
                raise WorkloadError(f"{path}:{lineno}: missing field {exc}") from None
            except (WorkloadError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise WorkloadError(f"{path}:{lineno}: {exc}") from None
    if n_cores is None:
        raise WorkloadError(f"{path}:1: empty file, expected a {FORMAT_NAME} header")
    if len(scripts) != n_cores:
        raise WorkloadError(
            f"{path}: header promises {n_cores} cores, found {len(scripts)}"
        )
    if scripts_digest(scripts) != digest:
        raise WorkloadError(f"{path}: digest mismatch (corrupt or edited)")
    return scripts


def _decode_row(row: dict) -> CoreScript:
    txns = tuple(
        ScriptedTxn(int(gap), tuple(_decode_op(op) for op in ops), int(aborts))
        for gap, aborts, ops in row["txns"]
    )
    return CoreScript(core=int(row["core"]), txns=txns)


def scripts_digest(scripts: list[CoreScript]) -> str:
    """Stable content digest of a compiled program."""
    h = hashlib.blake2b(digest_size=16)
    for cs in scripts:
        h.update(f"core{cs.core}".encode())
        for t in cs.txns:
            h.update(f"|{t.gap_cycles},{t.user_abort_attempts}".encode())
            for op in t.ops:
                h.update(f";{_encode_op(op)}".encode())
    return h.hexdigest()
