"""Property tests of the content-hash shard partition.

The gateway's scale-out story rests on three invariants of
``repro.serve.queue``'s partition functions: the ranges are *disjoint*
and *cover* the whole 32-bit key space for any shard count,
:func:`shard_for` is the exact arithmetic inverse of
:func:`shard_ranges`, and the mapping is *stable across processes*
(pure SHA-256 arithmetic — no ``hash()`` randomisation), so independent
gateway replicas agree on ownership without coordination.
"""

import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import SLOScheduler
from repro.serve import DockingJob, shard_for, shard_key, shard_ranges

_SPACE = 1 << 32


def _id_for_key(key: int) -> str:
    """A synthetic 64-hex job id whose shard key is exactly ``key``."""
    return f"{key:08x}" + "0" * 56


class TestPartitionProperties:
    @given(n=st.integers(min_value=1, max_value=257))
    @settings(max_examples=60, deadline=None)
    def test_ranges_disjoint_and_cover_space(self, n):
        ranges = shard_ranges(n)
        assert len(ranges) == n
        assert ranges[0][0] == 0
        assert ranges[-1][1] == _SPACE
        for (lo, hi), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert lo < hi       # non-empty
            assert hi == lo2     # adjacent: no gap, no overlap
        # widths differ by at most one key (remainder spread one-apiece)
        widths = {hi - lo for lo, hi in ranges}
        assert len(widths) <= 2
        assert max(widths) - min(widths) <= 1

    @given(n=st.integers(min_value=1, max_value=257),
           key=st.integers(min_value=0, max_value=_SPACE - 1))
    @settings(max_examples=120, deadline=None)
    def test_shard_for_inverts_ranges(self, n, key):
        owner = shard_for(_id_for_key(key), n)
        lo, hi = shard_ranges(n)[owner]
        assert lo <= key < hi

    @given(n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_range_edges_route_to_their_shard(self, n):
        for shard, (lo, hi) in enumerate(shard_ranges(n)):
            assert shard_for(_id_for_key(lo), n) == shard
            assert shard_for(_id_for_key(hi - 1), n) == shard

    def test_every_shard_reachable_by_real_jobs(self):
        """Real content-hash ids cover all shards at serving fan-outs."""
        ids = [DockingJob(spec={"kind": "case", "case": "1u4d"},
                          n_runs=1, seed=i).job_id for i in range(64)]
        for n in (2, 3, 4, 8):
            assert {shard_for(j, n) for j in ids} == set(range(n))


class TestCrossProcessStability:
    def test_shard_key_is_pure_hash_arithmetic(self):
        job = DockingJob(spec={"kind": "case", "case": "7cpa"}, n_runs=2)
        assert shard_key(job.job_id) == int(job.job_id[:8], 16)

    def test_mapping_stable_across_processes(self):
        """A fresh interpreter with a different PYTHONHASHSEED assigns
        every job to the same shard — replicas need no coordination."""
        jobs = [DockingJob(spec={"kind": "case", "case": c}, n_runs=2,
                           seed=s)
                for c in ("1u4d", "7cpa") for s in (0, 1, 2)]
        here = [(j.job_id, shard_for(j.job_id, 5)) for j in jobs]
        prog = (
            "import json,sys\n"
            "from repro.serve import DockingJob, shard_for\n"
            "out=[]\n"
            "for c in ('1u4d','7cpa'):\n"
            "    for s in (0,1,2):\n"
            "        j=DockingJob(spec={'kind':'case','case':c},"
            "n_runs=2,seed=s)\n"
            "        out.append((j.job_id, shard_for(j.job_id,5)))\n"
            "print(json.dumps(out))\n")
        import json
        import os
        from pathlib import Path
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
        got = subprocess.run([sys.executable, "-c", prog], env=env,
                             capture_output=True, text=True, check=True)
        there = [tuple(x) for x in json.loads(got.stdout)]
        assert there == here


class _FlatPredictor:
    """Every job costs one predicted second."""

    def shape_for_spec(self, spec):
        return None

    def predict_seconds(self, shape, budget_evals, **kw):
        return 1.0


class TestShardedQueue:
    def test_disjoint_queues_partition_a_workload(self):
        """The scheduler's hash-routed shard queues drain exactly the
        jobs ``shard_for`` assigns them: every job once, on its owner."""
        jobs = [DockingJob(spec={"kind": "case", "case": "1u4d"},
                           n_runs=1, seed=s) for s in range(24)]
        sched = SLOScheduler(n_shards=3, predictor=_FlatPredictor(),
                             quantum_s=100.0)
        for job in jobs:
            sched.admit(job)
        drained = {shard: [item.job.job_id
                           for item in sched.next_batch(shard)]
                   for shard in range(3)}
        for shard, ids in drained.items():
            assert all(shard_for(j, 3) == shard for j in ids)
        assert sorted(j for ids in drained.values() for j in ids) \
            == sorted(j.job_id for j in jobs)
