"""System configuration tests (the paper's Table II)."""

import pytest

from repro.config import (
    KERNELS,
    CacheConfig,
    DetectionScheme,
    HtmConfig,
    LatencyConfig,
    SystemConfig,
    default_system,
)
from repro.errors import ConfigError
from repro.kernel import build_machine


class TestTable2Defaults:
    """The default machine must be the paper's Table II."""

    def test_eight_cores(self):
        assert SystemConfig().n_cores == 8

    def test_l1_geometry(self):
        l1 = SystemConfig().l1
        assert l1.size_bytes == 64 * 1024
        assert l1.line_size == 64
        assert l1.associativity == 2
        assert SystemConfig().latency.l1_hit == 3
        assert l1.n_lines == 1024
        assert l1.n_sets == 512

    def test_l2_geometry(self):
        l2 = SystemConfig().l2
        assert l2.size_bytes == 512 * 1024
        assert l2.associativity == 16
        assert SystemConfig().latency.l2_hit == 15

    def test_l3_geometry(self):
        l3 = SystemConfig().l3
        assert l3.size_bytes == 2 * 1024 * 1024
        assert l3.associativity == 16
        assert SystemConfig().latency.l3_hit == 50

    def test_memory_latency(self):
        assert SystemConfig().latency.memory == 210

    def test_describe_mentions_key_numbers(self):
        text = SystemConfig().describe()
        for token in ("8", "64KB", "2-way", "512KB", "2MB", "210"):
            assert token in text


class TestCacheConfig:
    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(1024, 48, 2)

    def test_rejects_impossible_organisation(self):
        with pytest.raises(ConfigError):
            CacheConfig(1000, 64, 2)


class TestLatencyConfig:
    def test_monotone_enforced(self):
        with pytest.raises(ConfigError):
            LatencyConfig(l1_hit=20, l2_hit=10)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LatencyConfig(commit_overhead=-1)


class TestHtmConfig:
    def test_defaults(self):
        htm = HtmConfig()
        assert htm.scheme is DetectionScheme.ASF_BASELINE
        assert htm.n_subblocks == 4
        assert htm.dirty_state_enabled

    def test_rejects_zero_subblocks(self):
        with pytest.raises(ConfigError):
            HtmConfig(n_subblocks=0)

    def test_rejects_cap_below_base(self):
        with pytest.raises(ConfigError):
            HtmConfig(backoff_base_cycles=100, backoff_cap_cycles=10)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ConfigError):
            HtmConfig(backoff_jitter=1.5)


class TestSystemConfig:
    def test_subblock_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            default_system(DetectionScheme.SUBBLOCK, n_subblocks=5)

    def test_with_scheme_preserves_machine(self):
        base = SystemConfig()
        sub = base.with_scheme(DetectionScheme.SUBBLOCK, 8)
        assert sub.l1 == base.l1
        assert sub.htm.scheme is DetectionScheme.SUBBLOCK
        assert sub.htm.n_subblocks == 8
        # original untouched (frozen dataclasses)
        assert base.htm.scheme is DetectionScheme.ASF_BASELINE

    def test_subblock_size_property(self):
        assert default_system(DetectionScheme.SUBBLOCK, 4).subblock_size == 16
        assert default_system(DetectionScheme.PERFECT).subblock_size == 1
        assert default_system(DetectionScheme.ASF_BASELINE).subblock_size == 64

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_cores=0)

    def test_sensible_subblock_counts_accepted(self):
        for n in (1, 2, 4, 8, 16, 32, 64):
            cfg = default_system(DetectionScheme.SUBBLOCK, n)
            assert cfg.htm.n_subblocks == n

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_table2_prints_the_l1_latency_the_machine_charges(self, kernel):
        cfg = SystemConfig(latency=LatencyConfig(l1_hit=5), kernel=kernel)
        assert "2-way, 5 cycles load-to-use" in cfg.describe()
        machine = build_machine(cfg)
        machine.access(0, 0x10000, 8, False, 0)
        out = machine.access(0, 0x10000, 8, False, 300)
        assert out.hit_l1
        assert out.latency == 5
