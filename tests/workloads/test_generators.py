"""Generator tests common to all ten Table III benchmarks, plus
benchmark-specific structural checks."""

import pickle

import pytest

from repro.htm.ops import OpKind, TxnOp, read_op, work_op
from repro.trace.scriptio import load_scripts, save_scripts, scripts_digest
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
        """Each op is the engine's per-op tuple: it unpacks to
        ``(is_mem, addr, size, is_write, cycles)`` equal to its named
        fields, and survives pickling and a save/load round trip."""
        _, scripts = compiled[name]
        ops = [op for cs in scripts for txn in cs.txns for op in txn.ops]
        for op in ops:
            assert type(op) is TxnOp
            is_mem, addr, size, is_write, cycles = op
            assert (is_mem, addr, size, is_write, cycles) == (
                op.is_mem, op.addr, op.size, op.is_write, op.cycles
            )
        save_scripts(scripts, tmp_path / "program.jsonl")
        expected = [(tuple(op), op.kind) for op in ops]
        for copy in (pickle.loads(pickle.dumps(scripts)),
                     load_scripts(tmp_path / "program.jsonl")):
            assert copy == scripts
            copied = [op for cs in copy for txn in cs.txns for op in txn.ops]
            assert all(type(op) is TxnOp for op in copied)
            assert [(tuple(op), op.kind) for op in copied] == expected

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


#: ``scripts_digest`` of every Table III program at 8 cores, 30 txns per
#: core, seeds 1 and 7.  A changed digest means a generator or the op
#: encoding now compiles a different program, which would move every
#: physics result built on it.
PINNED_DIGESTS = {
    ("intruder", 1): "d184e404f19cb377e8d512d4e504a81d",
    ("intruder", 7): "6034a2294443a5c89ed7fc6ba73e9acd",
    ("kmeans", 1): "8f2b8e14b3de5f2fc15fbce131c9c072",
    ("kmeans", 7): "c3783e8159ccd5728742014552f75d1e",
    ("labyrinth", 1): "268ae036e52891f3866741445a629d53",
    ("labyrinth", 7): "6e146851002f0cc25a8f767d7106573e",
    ("ssca2", 1): "dc2c9cf49429f3015ad81551be247b63",
    ("ssca2", 7): "7889ddfb6d83d5cc7acedd26064c0b24",
    ("vacation", 1): "2fe7ddcb5b4faff371f7f2c5e2cb61fb",
    ("vacation", 7): "9c4e844af001265c5df6ea5639fe01a7",
    ("genome", 1): "2934737e077962389e0a7f762bbdd929",
    ("genome", 7): "eae3ccd21c1f46df4576ef6c94bfad5b",
    ("scalparc", 1): "70166059b595583bb85153f8b9d869c5",
    ("scalparc", 7): "33f657861f1fc8fc6f5961324f827dd0",
    ("apriori", 1): "2c75d7a254b6c35aac75d494ce6885de",
    ("apriori", 7): "5f5c3799cf4657fa95bda04214e7320f",
    ("fluidanimate", 1): "53d18a5a446b64e343a17cd439b7bf72",
    ("fluidanimate", 7): "08a56099c0dc246b4e1abe6cdbcd5186",
    ("utilitymine", 1): "e3937205e9f4559d242751a24ce8d88a",
    ("utilitymine", 7): "b1899ac93aeabdf2ff785d23ef155d23",
}


@pytest.mark.parametrize(("name", "seed"), list(PINNED_DIGESTS))
def test_compiled_program_is_pinned(name, seed):
    scripts = get_workload(name, txns_per_core=30).build(8, seed)
    assert scripts_digest(scripts) == PINNED_DIGESTS[name, seed]


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
