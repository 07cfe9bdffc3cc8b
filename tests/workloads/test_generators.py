"""Generator tests common to all ten Table III benchmarks, plus
benchmark-specific structural checks."""

import pickle

import pytest

from repro.htm.ops import OpKind, read_op, work_op
from repro.trace.scriptio import load_scripts, save_scripts
from repro.workloads.base import ScriptedTxn, ScriptStats
from repro.workloads.registry import BENCHMARK_NAMES, get_workload

N_CORES = 8
SEED = 13


@pytest.fixture(scope="module")
def compiled():
    """Every benchmark compiled once at a small size."""
    out = {}
    for name in BENCHMARK_NAMES:
        w = get_workload(name, txns_per_core=24)
        out[name] = (w, w.build(N_CORES, SEED))
    return out


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestCommonProperties:
    def test_one_script_per_core(self, name, compiled):
        _, scripts = compiled[name]
        assert [cs.core for cs in scripts] == list(range(N_CORES))

    def test_deterministic(self, name, compiled):
        w, scripts = compiled[name]
        again = get_workload(name, txns_per_core=24).build(N_CORES, SEED)
        assert scripts == again

    def test_seed_sensitivity(self, name, compiled):
        w, scripts = compiled[name]
        other = get_workload(name, txns_per_core=24).build(N_CORES, SEED + 1)
        assert scripts != other

    def test_every_txn_has_memory_ops(self, name, compiled):
        _, scripts = compiled[name]
        for cs in scripts:
            for txn in cs.txns:
                assert any(op.is_mem for op in txn.ops)

    def test_access_alignment_matches_field_grain(self, name, compiled):
        """Figure 5's observation: accesses land on the benchmark's
        natural field grid."""
        w, scripts = compiled[name]
        grain = w.info.field_bytes
        for cs in scripts:
            for txn in cs.txns:
                for op in txn.ops:
                    if op.is_mem:
                        assert op.addr % grain == 0

    def test_meta_mirrors_ops(self, name, compiled, tmp_path):
        """The engine's per-op metadata is the ops' own fields, and it
        survives pickling and a save/load round trip."""
        _, scripts = compiled[name]
        for cs in scripts:
            for txn in cs.txns:
                assert len(txn.meta) == len(txn.ops)
                for meta, op in zip(txn.meta, txn.ops):
                    assert meta == (op.is_mem, op.addr, op.size, op.is_write, op.cycles)
        save_scripts(scripts, tmp_path / "program.jsonl")
        expected = [txn.meta for cs in scripts for txn in cs.txns]
        for copy in (pickle.loads(pickle.dumps(scripts)),
                     load_scripts(tmp_path / "program.jsonl")):
            assert [txn.meta for cs in copy for txn in cs.txns] == expected

    def test_gap_cycles_reasonable(self, name, compiled):
        _, scripts = compiled[name]
        for cs in scripts:
            for txn in cs.txns:
                assert 0 <= txn.gap_cycles < 100_000

    def test_footprint_fits_speculative_buffer(self, name, compiled):
        """No transaction may deterministically overflow L1 capacity
        (the paper excluded such benchmarks)."""
        _, scripts = compiled[name]
        for cs in scripts:
            for txn in cs.txns:
                lines = {
                    op.addr // 64
                    for op in txn.ops
                    if op.is_mem
                }
                assert len(lines) <= 64

    def test_txn_count_honoured(self, name, compiled):
        w, scripts = compiled[name]
        for cs in scripts:
            assert cs.n_txns == w.txns_per_core

    def test_cores_share_data(self, name, compiled):
        """Different cores must overlap on some lines (otherwise no
        conflicts could ever occur)."""
        _, scripts = compiled[name]
        per_core_lines = []
        for cs in scripts:
            lines = set()
            for txn in cs.txns:
                for op in txn.ops:
                    if op.is_mem:
                        lines.add(op.addr // 64)
            per_core_lines.append(lines)
        for i, mine in enumerate(per_core_lines):
            others = set().union(
                *(s for j, s in enumerate(per_core_lines) if j != i)
            )
            assert mine & others, f"core {i} shares no lines with anyone"


def test_scripted_txn_equality_and_hash_follow_fields():
    def make(aborts=1):
        return ScriptedTxn(5, (read_op(0x40, 8), work_op(3)), aborts)

    assert make() == make() and hash(make()) == hash(make())
    assert make() != make(aborts=0)


class TestBenchmarkSpecifics:
    def test_kmeans_uses_4_byte_fields(self, compiled):
        _, scripts = compiled["kmeans"]
        sizes = {
            op.size
            for cs in scripts
            for txn in cs.txns
            for op in txn.ops
            if op.is_mem
        }
        assert 4 in sizes

    def test_vacation_reads_whole_records(self, compiled):
        _, scripts = compiled["vacation"]
        sizes = {
            op.size
            for cs in scripts
            for txn in cs.txns
            for op in txn.ops
            if op.kind is OpKind.READ
        }
        assert 32 in sizes  # whole tree-node reads

    def test_labyrinth_has_user_aborts(self, compiled):
        _, scripts = compiled["labyrinth"]
        aborts = [txn.user_abort_attempts for cs in scripts for txn in cs.txns]
        assert any(a > 0 for a in aborts)

    def test_only_labyrinth_has_user_aborts(self, compiled):
        for name in BENCHMARK_NAMES:
            if name == "labyrinth":
                continue
            _, scripts = compiled[name]
            assert all(
                txn.user_abort_attempts == 0 for cs in scripts for txn in cs.txns
            )

    def test_labyrinth_txns_are_long(self, compiled):
        _, lab_scripts = compiled["labyrinth"]
        _, ssca_scripts = compiled["ssca2"]

        def mean_ops(scripts):
            counts = [len(t.ops) for cs in scripts for t in cs.txns]
            return sum(counts) / len(counts)

        assert mean_ops(lab_scripts) > 4 * mean_ops(ssca_scripts)

    def test_ssca2_txns_are_tiny(self, compiled):
        _, scripts = compiled["ssca2"]
        for cs in scripts:
            for txn in cs.txns:
                assert sum(1 for op in txn.ops if op.is_mem) <= 6

    def test_genome_writes_early(self, compiled):
        """genome claims its bucket before the chain walk (RAW shape)."""
        _, scripts = compiled["genome"]
        for cs in scripts:
            for txn in cs.txns:
                mem_ops = [op for op in txn.ops if op.is_mem]
                first_write = next(
                    i for i, op in enumerate(mem_ops) if op.is_write
                )
                assert first_write <= 1

    def test_vacation_writes_late(self, compiled):
        """vacation traverses first, updates last (WAR shape)."""
        _, scripts = compiled["vacation"]
        late = 0
        total = 0
        for cs in scripts:
            for txn in cs.txns:
                mem_ops = [op for op in txn.ops if op.is_mem]
                first_write = next(
                    (i for i, op in enumerate(mem_ops) if op.is_write), None
                )
                if first_write is not None:
                    total += 1
                    if first_write >= len(mem_ops) // 2:
                        late += 1
        assert late / total > 0.9

    def test_kmeans_lines_concentrated(self, compiled):
        """Figure 4: kmeans shared data fits in a handful of lines."""
        _, scripts = compiled["kmeans"]
        shared_lines = set()
        for cs in scripts:
            for txn in cs.txns:
                for op in txn.ops:
                    if op.is_mem and op.size == 4:
                        shared_lines.add(op.addr // 64)
        assert len(shared_lines) <= 16

    def test_utilitymine_paired_fields_same_subblock(self, compiled):
        """The defining structure: both fields of an item record live in
        one 16-byte sub-block."""
        _, scripts = compiled["utilitymine"]
        for cs in scripts:
            for txn in cs.txns:
                for op in txn.ops:
                    if op.is_mem:
                        rec_base = op.addr - (op.addr % 16)
                        assert op.addr - rec_base in (0, 8)

    def test_script_stats_helper(self, compiled):
        _, scripts = compiled["vacation"]
        stats = ScriptStats.of(scripts)
        assert stats.n_txns == N_CORES * 24
        assert stats.n_reads > stats.n_writes  # read-mostly traversal
        assert stats.lines_touched
