"""Append-only, crash-tolerant results store for sweep checkpointing.

One directory per sweep::

    <dir>/results.jsonl    one JSON line per completed spec (append-only)
    <dir>/manifest.json    atomically-replaced metadata + entry count

``results.jsonl`` is the source of truth: each line carries the spec's
content hash (:func:`~repro.store.keys.spec_key`) and the full
:meth:`RunSummary.to_dict` snapshot, flushed as soon as the run
completes, so a crash loses at most the line being written.  On open the
store re-reads the log, tolerates (and truncates away) a torn final
line, and exposes the completed-key set — the streaming executor skips
those specs and serves their results straight from the store.

The manifest is written with the write-temp-then-``os.replace`` idiom,
so readers never observe a half-written manifest; it is bookkeeping
(entry count, layout version), never the data itself.

Only summaries are stored: a spec that keeps detail
(:attr:`~repro.sim.parallel.RunSpec.record_detail`) re-runs on resume
rather than silently losing its detail.

Because keys are content hashes of the spec (label and metadata
excluded), stores from *different hosts running the same sweep* agree on
every key — :meth:`ResultsStore.merge` unions such directories
idempotently (last-writer-wins on identical keys, with a
:class:`MergeReport` flagging any whose physics payloads diverge, which
would indicate non-determinism or version skew).  That is what makes
crash/retry across a distributed fleet exactly-once at the results
layer: re-running a spec anywhere produces the same key and the same
payload, so merging is a no-op for it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import SimulationError
from repro.store.keys import spec_key
from repro.telemetry.summary import RunSummary

if TYPE_CHECKING:
    from repro.sim.parallel import RunSpec
    from repro.sim.runner import RunResult

__all__ = ["MergeReport", "ResultsStore", "StoreEntry"]

#: Manifest layout version (independent of the spec-key version).
_STORE_VERSION = 1

#: Refresh the manifest every this many recorded results (plus on close).
_MANIFEST_EVERY = 32

#: Summary-payload keys that are provenance/bookkeeping, not physics:
#: two stores may legitimately disagree on them for the same spec (the
#: spec ran on different hosts, under different sweep labels) without
#: that being a conflict.
_PROVENANCE_KEYS = frozenset(
    {"label", "worker", "worker_retries", "serial_fallback"}
)


def _decode_row(raw: bytes) -> dict | None:
    """One log line's payload, or None for a torn or corrupt line.

    A row counts only when it is a complete line holding a JSON object
    with a ``str`` key and an object summary; anything else (a crash
    mid-write, bytes that are not UTF-8, a row of the wrong shape) ends
    the trustworthy prefix of the log.
    """
    if not raw.endswith(b"\n"):
        return None
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError):  # incl. JSON and Unicode decode errors
        return None
    if (
        isinstance(payload, dict)
        and isinstance(payload.get("key"), str)
        and isinstance(payload.get("summary"), dict)
    ):
        return payload
    return None


def _scan_log(path: str) -> tuple[dict[str, dict], int]:
    """Parse a results log into ``({key: payload}, trusted bytes)``.

    Later lines win.  A torn or corrupt line ends the trustworthy
    prefix; the second value is that prefix's length in bytes, which
    :meth:`ResultsStore._load` truncates the log to.  A missing log
    reads as empty.
    """
    payloads: dict[str, dict] = {}
    trusted = 0
    if not os.path.exists(path):
        return payloads, trusted
    with open(path, "rb") as fh:
        for raw in fh:
            payload = _decode_row(raw)
            if payload is None:
                break
            payloads[payload["key"]] = payload
            trusted += len(raw)
    return payloads, trusted


def _physics_diff(a: dict, b: dict) -> list[str]:
    """Summary fields on which two payloads for one key disagree.

    Provenance fields are excluded — only physics counts as divergence.
    """
    fields = (set(a) | set(b)) - _PROVENANCE_KEYS
    return sorted(f for f in fields if a.get(f) != b.get(f))


@dataclass(frozen=True, slots=True)
class MergeReport:
    """Outcome of :meth:`ResultsStore.merge` over one or more sources.

    ``conflicts`` lists ``(spec_key, divergent_fields)`` for entries
    whose *physics* payloads disagreed between stores — on a
    deterministic simulator that indicates version skew between hosts
    (the incoming payload still wins, per last-writer-wins, so the
    merged store is self-consistent either way).
    """

    added: int = 0
    updated: int = 0
    unchanged: int = 0
    conflicts: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def total(self) -> int:
        return self.added + self.updated + self.unchanged

    def format(self) -> str:
        out = (
            f"merged {self.total} entries: {self.added} added, "
            f"{self.unchanged} already present, {self.updated} updated"
        )
        if self.conflicts:
            lines = [out, f"{len(self.conflicts)} DIVERGENT payload(s):"]
            for key, fields in self.conflicts:
                lines.append(f"  {key}: {', '.join(fields)}")
            return "\n".join(lines)
        return out


@dataclass(frozen=True, slots=True)
class StoreEntry:
    """One stored run, as listed by :meth:`ResultsStore.entries`.

    A cheap inspection view — the identifying fields plus the headline
    counters — without materialising a full :class:`RunSummary`.
    """

    key: str
    label: str
    workload: str
    scheme: str
    seed: int
    commits: int
    execution_cycles: int


class ResultsStore:
    """Checkpoint/resume store for one sweep's completed runs.

    ``fresh=True`` discards any prior contents (a new sweep in a reused
    directory); the default re-reads them so interrupted sweeps resume
    where they died.  Usable as a context manager; :meth:`close` writes
    the final manifest.
    """

    def __init__(self, directory: str, fresh: bool = False) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.results_path = os.path.join(self.directory, "results.jsonl")
        self.manifest_path = os.path.join(self.directory, "manifest.json")
        self._payloads: dict[str, dict] = {}
        self._since_manifest = 0
        if fresh:
            for path in (self.results_path, self.manifest_path):
                if os.path.exists(path):
                    os.remove(path)
        else:
            self._load()
        self._fh = open(self.results_path, "a", encoding="utf-8")

    # -- loading -------------------------------------------------------------

    def _load(self) -> None:
        """Re-read the log; drop and truncate away a torn final line."""
        self._payloads, trusted = _scan_log(self.results_path)
        if (
            os.path.exists(self.results_path)
            and trusted < os.path.getsize(self.results_path)
        ):
            # Truncate the garbage so the next append starts a clean line.
            with open(self.results_path, "r+b") as fh:
                fh.truncate(trusted)

    # -- interface -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, key: str) -> bool:
        return key in self._payloads

    def completed_keys(self) -> set[str]:
        return set(self._payloads)

    def has_spec(self, spec: "RunSpec") -> bool:
        return spec_key(spec) in self._payloads

    def record(self, spec: "RunSpec", result: "RunResult") -> bool:
        """Persist one completed run; returns False for unstorable results.

        Only summaries can round-trip through JSON; a detail sink (from a
        spec that keeps detail) is not stored, so those specs simply
        re-run on resume.
        """
        if not isinstance(result.stats, RunSummary):
            return False
        key = spec_key(spec)
        payload = {"key": key, "label": spec.label,
                   "summary": result.stats.to_dict()}
        self._append(payload)
        return True

    def _append(self, payload: dict) -> None:
        """Durably append one payload line and index it."""
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._payloads[payload["key"]] = payload
        self._since_manifest += 1
        if self._since_manifest >= _MANIFEST_EVERY:
            self.write_manifest()

    def merge(self, other_dirs: "list[str] | tuple[str, ...] | str") -> MergeReport:
        """Union other stores' entries into this one, idempotently.

        ``other_dirs`` names store directories (or ``results.jsonl``
        files directly) — per-host checkpoint dirs from a distributed
        sweep, say.  Spec keys are content hashes, so the same spec run
        anywhere lands on the same key:

        * keys this store lacks are appended (``added``);
        * keys whose physics payload matches are skipped (``unchanged``
          — the idempotent case, free re-merge after crash/retry);
        * keys whose physics payload *diverges* are overwritten by the
          incoming entry (last-writer-wins, counted ``updated``) and
          reported in :attr:`MergeReport.conflicts` — on a deterministic
          simulator divergence means version skew between hosts, so it
          is surfaced rather than silently absorbed.

        Appends are durable as they happen (same fsync discipline as
        :meth:`record`), and the manifest is refreshed once at the end.
        """
        if isinstance(other_dirs, str):
            other_dirs = (other_dirs,)
        added = updated = unchanged = 0
        conflicts: list[tuple[str, tuple[str, ...]]] = []
        for source in other_dirs:
            path = str(source)
            if os.path.isdir(path):
                path = os.path.join(path, "results.jsonl")
            if not os.path.exists(path):
                raise SimulationError(f"no results log at {path!r}")
            if os.path.abspath(path) == os.path.abspath(self.results_path):
                continue  # merging a store into itself is a no-op
            for key, payload in _scan_log(path)[0].items():
                mine = self._payloads.get(key)
                if mine is None:
                    self._append(payload)
                    added += 1
                    continue
                diff = _physics_diff(mine["summary"], payload["summary"])
                if not diff:
                    unchanged += 1
                    continue
                conflicts.append((key, tuple(diff)))
                self._append(payload)
                updated += 1
        self.write_manifest()
        return MergeReport(
            added=added,
            updated=updated,
            unchanged=unchanged,
            conflicts=tuple(conflicts),
        )

    def result_for(self, spec: "RunSpec") -> "RunResult":
        """Reconstruct a completed spec's result from the store.

        The stored summary carries the physics; the caller's spec
        supplies the config object (configs are part of the key, so they
        are guaranteed to match) and the current label.
        """
        from repro.sim.runner import RunResult

        key = spec_key(spec)
        payload = self._payloads.get(key)
        if payload is None:
            raise SimulationError(
                f"spec {spec.label!r} ({key}) is not in the results store"
            )
        summary = RunSummary.from_dict(payload["summary"])
        summary.label = spec.label
        return RunResult(
            workload=summary.workload,
            scheme=summary.scheme,
            config=spec.config,
            seed=summary.seed,
            stats=summary,
            violations=summary.violations,
            worker_retries=summary.worker_retries,
            serial_fallback=summary.serial_fallback,
            worker=summary.worker,
        )

    def iter_summaries(self) -> Iterator[RunSummary]:
        """Every stored summary, in insertion order (analysis over a
        finished or partial sweep without re-running anything)."""
        for payload in self._payloads.values():
            yield RunSummary.from_dict(payload["summary"])

    def entries(self) -> list[StoreEntry]:
        """Inspection listing of every stored run, in insertion order."""
        out = []
        for payload in self._payloads.values():
            summary = payload["summary"]
            out.append(
                StoreEntry(
                    key=payload["key"],
                    label=payload.get("label", ""),
                    workload=summary.get("workload", ""),
                    scheme=summary.get("scheme", ""),
                    seed=summary.get("seed", 0),
                    commits=summary.get("txn_commits", 0),
                    execution_cycles=summary.get("execution_cycles", 0),
                )
            )
        return out

    def prune(
        self,
        keep: int | None = None,
        predicate: "Callable[[StoreEntry], bool] | None" = None,
    ) -> int:
        """Drop stored entries and compact the log; returns entries removed.

        ``predicate`` selects which entries survive (True = keep);
        ``keep=N`` then retains only the *last* N survivors (insertion
        order — the N most recently recorded).  With neither argument the
        call is a pure compaction (rewrites the log, drops nothing).

        The rewrite is atomic: survivors are written to a temp file which
        ``os.replace``s the log, so a crash mid-prune leaves either the
        old log or the new one, never a mix.  The append handle is
        reopened on the new file and the manifest refreshed.
        """
        if keep is not None and keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        survivors = list(self._payloads.values())
        if predicate is not None:
            by_key = {e.key: e for e in self.entries()}
            survivors = [p for p in survivors if predicate(by_key[p["key"]])]
        if keep is not None and len(survivors) > keep:
            survivors = survivors[len(survivors) - keep:] if keep else []
        removed = len(self._payloads) - len(survivors)
        if removed == 0:
            return 0
        self._fh.close()
        tmp = self.results_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for payload in survivors:
                fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.results_path)
        self._payloads = {p["key"]: p for p in survivors}
        self._fh = open(self.results_path, "a", encoding="utf-8")
        self.write_manifest()
        return removed

    # -- manifest ------------------------------------------------------------

    def write_manifest(self) -> None:
        """Atomically publish the manifest (write temp, then replace)."""
        manifest = {
            "version": _STORE_VERSION,
            "entries": len(self._payloads),
            "results_file": os.path.basename(self.results_path),
        }
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.manifest_path)
        self._since_manifest = 0

    def read_manifest(self) -> dict | None:
        """The last atomically-published manifest, or None."""
        try:
            with open(self.manifest_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if not self._fh.closed:
            self.write_manifest()
            self._fh.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
