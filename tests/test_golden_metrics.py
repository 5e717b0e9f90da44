"""Golden metrics + determinism regression for the LK23 simulation.

Two different promises, two different test styles:

* **Determinism**: the same seed must give a *bit-identical* run — not
  merely the same final time, but the same event stream and the same
  aggregate counters, down to the last IEEE-754 bit.  Checked by running
  twice and comparing sha-256 fingerprints, so any source of hidden
  nondeterminism (dict ordering, heap tie-breaks, rng sharing) fails
  loudly.
* **Golden values**: a small Fig. 1 configuration is pinned to the
  byte.  The traffic split across sharing levels is *the* observable the
  paper's argument rests on; if a refactor silently shifts bytes between
  levels, these literals catch it.  Byte counters are exact integers by
  construction (sums of block sizes), so equality is safe; the makespan
  is float arithmetic and gets a tight relative tolerance instead.

Every run here is also audited against all conservation laws of
:mod:`repro.observe.invariants`.
"""

import pytest

from repro.core.api import run_lk23
from repro.observe import capture, metrics_fingerprint, stream_hash
from repro.topology.objects import ObjType

SMALL = dict(topology="small-numa", n=2048, iterations=2, seed=42, trace=True)


def audited_lk23(**kwargs):
    """``run_lk23`` with every conservation law checked on its machine."""
    with capture() as cap:
        result = run_lk23(**kwargs)
    assert cap.check_all()  # raises InvariantError on any violation
    return result


def run_small(policy: str):
    return audited_lk23(policy=policy, **SMALL)


class TestDeterminism:
    def test_identical_seeds_bitwise_identical_runs(self):
        a = run_small("nobind")  # nobind exercises the noisy OS scheduler
        b = run_small("nobind")
        assert stream_hash(a.trace.events) == stream_hash(b.trace.events)
        assert metrics_fingerprint(a.metrics) == metrics_fingerprint(b.metrics)
        assert a.time == b.time  # bitwise, no approx
        assert list(a.trace.events) == list(b.trace.events)

    def test_different_seed_different_stream(self):
        a = audited_lk23(policy="nobind", topology="small-numa", n=2048,
                     iterations=2, seed=42, trace=True)
        b = audited_lk23(policy="nobind", topology="small-numa", n=2048,
                     iterations=2, seed=43, trace=True)
        assert stream_hash(a.trace.events) != stream_hash(b.trace.events)

    def test_bound_run_seed_invariants(self):
        # Timings jitter with the seed even when bound (and with them
        # which halo copy a read pulls from, hence the exact per-level
        # split) — but the conserved quantities must not move: total
        # bytes, the bulk DRAM traffic, and zero migrations.
        a = audited_lk23(policy="treematch", topology="small-numa", n=2048,
                     iterations=2, seed=1, trace=True)
        b = audited_lk23(policy="treematch", topology="small-numa", n=2048,
                     iterations=2, seed=99, trace=True)
        assert a.metrics.total_bytes == b.metrics.total_bytes
        assert (a.metrics.bytes_by_level[ObjType.NUMANODE]
                == b.metrics.bytes_by_level[ObjType.NUMANODE])
        assert a.metrics.migrations == b.metrics.migrations == 0


class TestGoldenSmallFig1:
    """Pinned values for LK23 n=2048, 2 sweeps, small-numa(2, 4), seed 42."""

    GOLDEN_BYTES = {
        "treematch": {
            ObjType.MACHINE: 409_872.0,
            ObjType.NUMANODE: 67_108_864.0,
            ObjType.L3: 213_144.0,
            ObjType.CORE: 32_824.0,
        },
        "nobind": {
            ObjType.MACHINE: 422_016.0,
            ObjType.NUMANODE: 67_108_864.0,
            ObjType.L3: 180_512.0,
            ObjType.CORE: 53_312.0,
        },
    }
    GOLDEN_MAKESPAN = {
        "treematch": 0.006752746566666668,
        "nobind": 0.0072225421666666685,
    }
    GOLDEN_TRANSFERS = 176

    @pytest.fixture(scope="class")
    def runs(self):
        return {p: run_small(p) for p in ("treematch", "nobind")}

    @pytest.mark.parametrize("policy", ["treematch", "nobind"])
    def test_bytes_by_level_pinned(self, runs, policy):
        got = dict(runs[policy].metrics.bytes_by_level)
        assert got == self.GOLDEN_BYTES[policy]

    @pytest.mark.parametrize("policy", ["treematch", "nobind"])
    def test_makespan_pinned(self, runs, policy):
        assert runs[policy].time == pytest.approx(
            self.GOLDEN_MAKESPAN[policy], rel=1e-9
        )

    @pytest.mark.parametrize("policy", ["treematch", "nobind"])
    def test_transfer_count_pinned(self, runs, policy):
        # Same program, same transfer count — only the *where* differs.
        assert runs[policy].metrics.transfers == self.GOLDEN_TRANSFERS

    def test_bound_beats_unbound_on_cross_numa_traffic(self, runs):
        """The paper's claim in one assertion: binding by the
        communication pattern keeps traffic out of the cross-NUMA link.
        """
        def remote(result):
            m = result.metrics.bytes_by_level
            return sum(
                v for lvl, v in m.items()
                if lvl in (ObjType.MACHINE, ObjType.GROUP)
            )

        bound, unbound = runs["treematch"], runs["nobind"]
        assert remote(bound) <= remote(unbound)
        assert bound.time <= unbound.time

    def test_total_bytes_conserved_across_policies(self, runs):
        totals = {p: r.metrics.total_bytes for p, r in runs.items()}
        assert totals["treematch"] == totals["nobind"] == 67_764_704.0

    @pytest.mark.parametrize("policy", ["treematch", "nobind"])
    def test_fingerprint_stable_within_session(self, runs, policy):
        # The full fingerprint (time + stream + metrics) reproduces when
        # the run does — guards run_fingerprint itself against drift.
        again = run_small(policy)
        assert metrics_fingerprint(again.metrics) == metrics_fingerprint(
            runs[policy].metrics
        )
        assert stream_hash(again.trace.events) == stream_hash(
            runs[policy].trace.events
        )
