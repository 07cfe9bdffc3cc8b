"""System configuration (the paper's Table II) and HTM policy knobs.

:class:`SystemConfig` fully describes a simulated machine: core count,
cache geometry, latency model, the conflict-detection scheme under test and
its parameters.  Everything the engine does is a pure function of
``(SystemConfig, Workload, seed)``.

The defaults reproduce Table II of the paper::

    Processors   8 AMD Opteron 2.2 GHz out-of-order cores
    L1 DCache    64 KB, 64 B lines, 2-way, 3 cycles load-to-use
    Private L2   512 KB, 16-way, 15 cycles
    Private L3   2 MB, 16-way, 50 cycles
    Main memory  2048 MB, 210 cycles
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

__all__ = [
    "CacheConfig",
    "ConflictResolution",
    "DetectionScheme",
    "DetectionTiming",
    "HtmConfig",
    "HtmPolicy",
    "KERNELS",
    "LatencyConfig",
    "LazyArbitration",
    "POLICY_PRESETS",
    "SystemConfig",
    "TABLE2_DESCRIPTION",
    "TelemetryConfig",
    "VersionMgmt",
    "default_system",
]

#: Valid values of :attr:`TelemetryConfig.sink`.
TELEMETRY_SINKS = ("auto", "trace")

#: Valid values of :attr:`SystemConfig.kernel`.
KERNELS = ("object", "flat")


class ConflictResolution(enum.Enum):
    """Who aborts when a probe conflicts with a running transaction.

    * ``REQUESTER_WINS`` — ASF's policy (the paper: "the earlier
      conflicting transaction will be aborted"): the probed victim dies,
      the requester proceeds.
    * ``OLDER_WINS`` — age-based: if the victim started earlier, the
      *requester* aborts instead (classic livelock-avoidance policy;
      offered as a design-space ablation).
    * ``STALL_BACKOFF`` — the requester neither kills nor dies: it parks
      in a bounded stall queue and retries the access after a
      deterministic delay (LogTM-style).  Exhausting the per-attempt
      stall budget or overflowing the queue falls back to aborting the
      requester, which guarantees deadlock freedom.
    """

    REQUESTER_WINS = "requester_wins"
    OLDER_WINS = "older_wins"
    STALL_BACKOFF = "stall_backoff"


class VersionMgmt(enum.Enum):
    """Where speculative store values live until commit.

    * ``LAZY`` — ASF's write buffering: stores collect in a redo log and
      publish at commit (abort discards the log).
    * ``EAGER`` — LogTM-style in-place update: stores publish to memory
      immediately and record the overwritten value in an undo log
      (commit discards the log, abort rolls it back).  Requires eager
      conflict detection — in-place speculative values must never be
      visible to transactions that could still commit around them.
    """

    EAGER = "eager"
    LAZY = "lazy"


class DetectionTiming(enum.Enum):
    """When conflicts are detected.

    * ``EAGER`` — at access time, on coherence probes (ASF).
    * ``LAZY`` — at commit time: probes never abort anyone; the
      committer value-validates its read set and (policy permitting)
      arbitrates against still-running transactions.
    """

    EAGER = "eager"
    LAZY = "lazy"


class LazyArbitration(enum.Enum):
    """How a lazy-detection commit treats overlapping running transactions.

    * ``COMMITTER_WINS`` — the committer aborts every running transaction
      whose speculative footprint overlaps its write set (TCC-style).
    * ``POLITE`` — the committer publishes and leaves the others alone;
      doomed readers discover the overwrite when their own commit-time
      validation fails.
    """

    COMMITTER_WINS = "committer_wins"
    POLITE = "polite"


@dataclass(frozen=True, slots=True)
class HtmPolicy:
    """One point of the HTM design-space matrix (gem5-style axes).

    The default instance *is* AMD ASF: lazy versioning, eager
    line-granular detection, requester-wins resolution.  Every other
    combination is a design-space excursion the engine runs through the
    same two kernels.  The stall knobs only matter under
    ``ConflictResolution.STALL_BACKOFF``; ``lazy_arbitration`` only
    under ``DetectionTiming.LAZY``.

    * ``stall_cycles`` — base retry delay for one stall (scaled by how
      many cores are already queued, which breaks symmetric livelock
      deterministically without consuming RNG draws).
    * ``stall_limit`` — stalls one transaction attempt may take before
      the deadlock-avoidance fallback aborts the requester.
    * ``stall_queue_depth`` — machine-wide bound on simultaneously
      stalled cores; overflow also falls back to a requester abort.
    """

    version_mgmt: VersionMgmt = VersionMgmt.LAZY
    conflict_detection: DetectionTiming = DetectionTiming.EAGER
    resolution: ConflictResolution = ConflictResolution.REQUESTER_WINS
    lazy_arbitration: LazyArbitration = LazyArbitration.COMMITTER_WINS
    stall_cycles: int = 24
    stall_limit: int = 8
    stall_queue_depth: int = 4

    def __post_init__(self) -> None:
        if (
            self.version_mgmt is VersionMgmt.EAGER
            and self.conflict_detection is DetectionTiming.LAZY
        ):
            raise ConfigError(
                "eager version management requires eager conflict detection "
                "(in-place speculative values must not survive undetected)"
            )
        if self.stall_cycles <= 0:
            raise ConfigError("stall_cycles must be positive")
        if self.stall_limit <= 0:
            raise ConfigError("stall_limit must be positive")
        if self.stall_queue_depth <= 0:
            raise ConfigError("stall_queue_depth must be positive")

    @property
    def is_asf(self) -> bool:
        """Whether this point reproduces the paper's ASF regime."""
        return (
            self.version_mgmt is VersionMgmt.LAZY
            and self.conflict_detection is DetectionTiming.EAGER
            and self.resolution is ConflictResolution.REQUESTER_WINS
        )

    def describe(self) -> str:
        """Compact ``vm/cd/res`` label used by sweeps and reports."""
        out = (
            f"{self.version_mgmt.value}-vm/"
            f"{self.conflict_detection.value}-cd/"
            f"{self.resolution.value}"
        )
        if self.conflict_detection is DetectionTiming.LAZY:
            out += f"/{self.lazy_arbitration.value}"
        return out


#: Named policy points offered by the CLI's ``--policy`` flag.  ``asf``
#: is the paper's regime (and the config default); ``eager`` is a
#: LogTM-style eager/eager point; ``lazy`` a TCC-style lazy/lazy point.
POLICY_PRESETS: dict[str, HtmPolicy] = {
    "asf": HtmPolicy(),
    "eager": HtmPolicy(version_mgmt=VersionMgmt.EAGER),
    "lazy": HtmPolicy(conflict_detection=DetectionTiming.LAZY),
}


class DetectionScheme(enum.Enum):
    """Which conflict detector the HTM uses.

    * ``ASF_BASELINE`` — line-granular SR/SW bits (the paper's baseline).
    * ``SUBBLOCK``     — the paper's contribution: per-sub-block SPEC/WR
      state with dirty handling (Section IV).
    * ``PERFECT``      — byte-granular detection, zero false conflicts (the
      paper's ideal upper bound).
    * ``DECOUPLED``    — the Section II related work (SpMT/DPTM-style
      coherence decoupling): WAR false conflicts tolerated via lazy
      commit-time validation; RAW/WAW handled like the baseline.
    """

    ASF_BASELINE = "asf"
    SUBBLOCK = "subblock"
    PERFECT = "perfect"
    DECOUPLED = "decoupled"


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_size: int
    associativity: int
    load_to_use_cycles: int

    def __post_init__(self) -> None:
        if self.line_size <= 0 or (self.line_size & (self.line_size - 1)) != 0:
            raise ConfigError(f"line size must be a power of two, got {self.line_size}")
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ConfigError(
                f"cache of {self.size_bytes} B cannot be organised as "
                f"{self.associativity}-way with {self.line_size} B lines"
            )
        if self.load_to_use_cycles < 0:
            raise ConfigError("latency must be non-negative")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


@dataclass(frozen=True, slots=True)
class LatencyConfig:
    """Load-to-use latencies in core cycles (Table II) plus derived costs.

    ``cache_to_cache`` is the cost of servicing a miss from a remote L1 via
    the coherence fabric; PTLsim models it near the L3 latency, we follow.
    ``non_mem_op`` is the cost charged per non-memory work unit between
    accesses (the three-wide core retires several instructions per cycle;
    workloads express computation directly in cycles).
    """

    l1_hit: int = 3
    l2_hit: int = 15
    l3_hit: int = 50
    memory: int = 210
    cache_to_cache: int = 60
    non_mem_op: int = 1
    commit_overhead: int = 6
    abort_overhead: int = 20
    txn_begin_overhead: int = 4

    def __post_init__(self) -> None:
        for name in (
            "l1_hit",
            "l2_hit",
            "l3_hit",
            "memory",
            "cache_to_cache",
            "non_mem_op",
            "commit_overhead",
            "abort_overhead",
            "txn_begin_overhead",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"latency {name} must be non-negative")
        if not self.l1_hit <= self.l2_hit <= self.l3_hit <= self.memory:
            raise ConfigError("latencies must be monotone up the hierarchy")


@dataclass(frozen=True, slots=True)
class HtmConfig:
    """HTM policy parameters.

    ``n_subblocks`` only matters for ``DetectionScheme.SUBBLOCK``; the paper
    evaluates {2, 4, 8, 16} and defaults to 4.  ``dirty_state_enabled``
    exists for the ablation of Section IV-C — disabling it reintroduces the
    Figure 6 atomicity hazard, which the checker then detects.
    """

    scheme: DetectionScheme = DetectionScheme.ASF_BASELINE
    n_subblocks: int = 4
    dirty_state_enabled: bool = True
    # Ablation knob for the Section IV-D-2 rule: abort a remote
    # speculative writer on any invalidating probe to its line, even
    # without sub-block overlap (True = the implementable hardware; False
    # = idealised, quantifies what the accepted WAW false conflicts cost).
    forced_waw_abort: bool = True
    policy: HtmPolicy = field(default_factory=HtmPolicy)
    backoff_base_cycles: int = 64
    backoff_cap_cycles: int = 8192
    backoff_jitter: float = 0.5
    max_retries: int | None = None

    @property
    def resolution(self) -> ConflictResolution:
        """The policy's resolution axis (the machines' hot-path read)."""
        return self.policy.resolution

    def __post_init__(self) -> None:
        if self.n_subblocks <= 0:
            raise ConfigError(f"n_subblocks must be positive, got {self.n_subblocks}")
        if self.backoff_base_cycles <= 0:
            raise ConfigError("backoff base must be positive")
        if self.backoff_cap_cycles < self.backoff_base_cycles:
            raise ConfigError("backoff cap must be >= base")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigError("backoff jitter must be in [0, 1]")
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigError("max_retries must be None or >= 0")


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """How a run's events are consumed (see :mod:`repro.telemetry`).

    A run keeps per-event detail only when its caller asks for it
    (``record_detail``); telemetry never changes that.
    ``trace_path`` additionally streams the run's events to a JSONL trace
    file, and ``trace_accesses`` adds the per-access events, which
    dominate trace volume.  ``sink="trace"`` states that intent and
    requires ``trace_path``; ``"auto"`` (the default) traces whenever
    ``trace_path`` is set.
    """

    sink: str = "auto"
    trace_path: str | None = None
    trace_accesses: bool = False

    def __post_init__(self) -> None:
        if self.sink not in TELEMETRY_SINKS:
            raise ConfigError(
                f"telemetry sink must be one of {TELEMETRY_SINKS}, got {self.sink!r}"
            )
        if self.sink == "trace" and self.trace_path is None:
            raise ConfigError("telemetry sink 'trace' requires trace_path")


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Complete description of a simulated machine + HTM scheme."""

    n_cores: int = 8
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=64 * 1024, line_size=64, associativity=2, load_to_use_cycles=3
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=512 * 1024, line_size=64, associativity=16, load_to_use_cycles=15
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * 1024 * 1024,
            line_size=64,
            associativity=16,
            load_to_use_cycles=50,
        )
    )
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    htm: HtmConfig = field(default_factory=HtmConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    track_values: bool = True
    # Which machine implementation the engine builds: "flat" (default)
    # is the struct-of-arrays kernel plus the flat transactional runtime
    # (recycled per-core txn views, inlined commit); "object" the per-line
    # object model it mirrors bit-for-bit.  Both produce identical
    # telemetry — the kernel-parity suite asserts it.
    kernel: str = "flat"

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError(f"n_cores must be positive, got {self.n_cores}")
        if self.kernel not in KERNELS:
            raise ConfigError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if not (self.l1.line_size == self.l2.line_size == self.l3.line_size):
            raise ConfigError("all cache levels must share one line size")
        if self.htm.scheme is DetectionScheme.SUBBLOCK:
            if self.l1.line_size % self.htm.n_subblocks != 0:
                raise ConfigError(
                    f"{self.l1.line_size} B line cannot hold "
                    f"{self.htm.n_subblocks} equal sub-blocks"
                )

    @property
    def line_size(self) -> int:
        return self.l1.line_size

    @property
    def subblock_size(self) -> int:
        """Bytes per sub-block under the configured scheme (line size for
        the baseline, one byte conceptually for the perfect system)."""
        if self.htm.scheme is DetectionScheme.SUBBLOCK:
            return self.line_size // self.htm.n_subblocks
        if self.htm.scheme is DetectionScheme.PERFECT:
            return 1
        return self.line_size

    def with_scheme(
        self, scheme: DetectionScheme, n_subblocks: int | None = None
    ) -> "SystemConfig":
        """A copy of this config running a different detector (same machine)."""
        htm = replace(
            self.htm,
            scheme=scheme,
            n_subblocks=self.htm.n_subblocks if n_subblocks is None else n_subblocks,
        )
        return replace(self, htm=htm)

    def with_telemetry(self, **overrides) -> "SystemConfig":
        """A copy with telemetry fields overridden (same machine)."""
        return replace(self, telemetry=replace(self.telemetry, **overrides))

    def with_kernel(self, kernel: str) -> "SystemConfig":
        """A copy running on a different machine kernel (same semantics)."""
        return replace(self, kernel=kernel)

    def with_policy(
        self, policy: HtmPolicy | None = None, **overrides
    ) -> "SystemConfig":
        """A copy running a different HTM policy point (same machine).

        Pass a whole :class:`HtmPolicy`, field overrides, or both (the
        overrides apply on top of the given policy).
        """
        base = self.htm.policy if policy is None else policy
        if overrides:
            base = replace(base, **overrides)
        return replace(self, htm=replace(self.htm, policy=base))

    def describe(self) -> str:
        """Human-readable machine description (regenerates Table II)."""
        lines = [
            f"Processors      {self.n_cores} out-of-order cores",
            f"L1 DCache       {self.l1.size_bytes // 1024}KB, {self.l1.line_size}B lines, "
            f"{self.l1.associativity}-way, {self.l1.load_to_use_cycles} cycles load-to-use",
            f"Private L2      {self.l2.size_bytes // 1024}KB, {self.l2.associativity}-way, "
            f"{self.l2.load_to_use_cycles} cycles load-to-use",
            f"Private L3      {self.l3.size_bytes // 1024 // 1024}MB, {self.l3.associativity}-way, "
            f"{self.l3.load_to_use_cycles} cycles load-to-use",
            f"Main memory     {self.latency.memory} cycles load-to-use",
            f"HTM scheme      {self.htm.scheme.value}"
            + (
                f" ({self.htm.n_subblocks} sub-blocks of {self.subblock_size}B)"
                if self.htm.scheme is DetectionScheme.SUBBLOCK
                else ""
            ),
            f"HTM policy      {self.htm.policy.describe()}",
        ]
        return "\n".join(lines)


TABLE2_DESCRIPTION = SystemConfig().describe()
"""The default machine, rendered — used by the Table II benchmark."""


def default_system(
    scheme: DetectionScheme = DetectionScheme.ASF_BASELINE,
    n_subblocks: int = 4,
    **overrides,
) -> SystemConfig:
    """The paper's Table II machine with the requested detection scheme."""
    cfg = SystemConfig(**overrides)
    return cfg.with_scheme(scheme, n_subblocks)
