import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluriflow import normality, verification


def _chunk_stacks(rng):
    """Oracle: the sweep drawn and built chunk by chunk, with one
    standard_normal call per size and family, as the suite once drew it."""
    for lo in range(0, verification.APPENDIX_COUNT, verification.APPENDIX_CHUNK):
        modes = np.arange(lo, min(lo + verification.APPENDIX_CHUNK, verification.APPENDIX_COUNT)) % 4
        sizes = rng.integers(2, 11, size=modes.size)
        for n in np.flatnonzero(np.bincount(sizes)).tolist():
            counts = np.bincount(modes[sizes == n], minlength=4)
            plain = rng.standard_normal((counts[0] + counts[3], n, n))
            x = rng.standard_normal((counts[1], n + 2, n))
            y = rng.standard_normal((counts[2], 2 * n + 1, n))
            normal = verification._conjugates(x[:, :n], x[:, n], x[:, n + 1, 0])
            near = verification._conjugates(y[:, :n], y[:, n]) + 1e-9 * y[:, n + 1 :]
            yield np.concatenate([plain, normal, near])


def _appendix_stacks(rng):
    """The APPENDIX_COUNT matrices of suite_appendix's sweep, in stacks (k, n, n)
    of one size n in 2..10 and at most APPENDIX_POOL * APPENDIX_CHUNK matrices."""
    for pooled in verification._pool_draws(rng):
        yield from verification._pool_stacks(pooled)


def _by_size(stacks):
    """{n: the matrices of size n as rows of bits, in sorted order}."""
    rows = {}
    for s in stacks:
        rows.setdefault(s.shape[-1], []).append(s.reshape(len(s), -1).view(np.uint64))
    return {n: np.unique(np.concatenate(r), axis=0) for n, r in rows.items()}


@pytest.mark.parametrize("seed", [0, 1, 2025935879])
def test_pooled_appendix_stacks_hold_the_chunk_oracles_matrices(seed):
    pooled = list(_appendix_stacks(np.random.default_rng(seed)))
    got, want = _by_size(pooled), _by_size(_chunk_stacks(np.random.default_rng(seed)))
    assert got.keys() == want.keys()
    for n in want:
        assert np.array_equal(got[n], want[n]), n
    # no two draws coincide, so the sorted rows count every matrix
    assert sum(len(r) for r in want.values()) == sum(len(s) for s in pooled) == verification.APPENDIX_COUNT


def test_appendix_stacks_are_bounded_by_the_chunk():
    # one stack per size and pool of APPENDIX_POOL chunks
    stacks = list(_appendix_stacks(np.random.default_rng(1)))
    assert sum(len(s) for s in stacks) == verification.APPENDIX_COUNT
    assert max(len(s) for s in stacks) <= verification.APPENDIX_POOL * verification.APPENDIX_CHUNK
    for s in stacks:
        assert s.ndim == 3 and s.shape[1] == s.shape[2] and 2 <= s.shape[1] <= 10


def _serial_sweep(rng):
    """Oracle: the sweep on the calling thread alone, stack by stack."""
    min_gap, agree = 0.0, True
    for stack in _appendix_stacks(rng):
        rep = normality.normality_report(stack)
        min_gap = min(min_gap, float(rep.frobenius_gap.min()), float(rep.sym_gap.min()))
        agree &= bool(verification.normality_bounds_hold(rep, stack.shape[-1]).all())
    return min_gap, agree


def _bits(report):
    """The suite's dict with each float as its bit pattern."""
    return {k: np.float64(v).view(np.uint64) if isinstance(v, float) else v for k, v in report.items()}


@pytest.mark.parametrize("seed", [0, 376, 2025935879])
def test_threaded_appendix_sweep_is_the_serial_sweep_bit_for_bit(seed, monkeypatch):
    threaded = verification.suite_appendix(seed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = verification.suite_appendix(seed)
    monkeypatch.undo()
    monkeypatch.setattr(verification, "_appendix_sweep", _serial_sweep)
    serial = verification.suite_appendix(seed)
    assert _bits(threaded) == _bits(one_cpu) == _bits(serial)


def test_sweep_workers_are_capped_by_cpus_and_pools(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)))
    assert [verification._sweep_workers(p) for p in (1, 2, 10)] == [1, 2, 10]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert [verification._sweep_workers(p) for p in (1, 2, 10)] == [1, 2, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verification._sweep_workers(10) == 1


def test_many_helpers_switching_often_give_the_serial_sweep(monkeypatch):
    # more workers than cores, and thread switches every microsecond: a pool
    # drawn twice, lost or reported out of its draw would show in the count
    # check or in the result
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(threading, "Thread", Recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        swept = verification._appendix_sweep(np.random.default_rng(0))
    finally:
        sys.setswitchinterval(interval)
    assert swept == _serial_sweep(np.random.default_rng(0))
    # at most one worker per pool; all joined
    pools = -(-verification.APPENDIX_COUNT // (verification.APPENDIX_POOL * verification.APPENDIX_CHUNK))
    assert 1 <= len(started) <= min(64, pools) and not any(t.is_alive() for t in started)


@pytest.mark.parametrize("k", [1, 7, 30])
def test_a_failed_pool_fails_the_suite(k, monkeypatch):
    report, calls, lock = normality.normality_report, [0], threading.Lock()

    def fail_on_kth_call(e):
        with lock:
            calls[0] += 1
            if calls[0] == k:
                raise FloatingPointError(f"call {k}")
        return report(e)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(normality, "normality_report", fail_on_kth_call)
    with pytest.raises(FloatingPointError, match=f"call {k}"):
        verification.suite_appendix(0)


def test_a_helper_threads_failure_is_raised_in_the_calling_thread(monkeypatch):
    report = normality.normality_report

    def fail_in_a_helper(e):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("helper")
        return report(e)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(normality, "normality_report", fail_in_a_helper)
    with pytest.raises(FloatingPointError, match="helper"):
        verification.suite_appendix(0)


def test_a_failed_sweep_leaves_no_worker_running(monkeypatch):
    def fail(e):
        raise FloatingPointError("pool")

    before = threading.active_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(normality, "normality_report", fail)
    with pytest.raises(FloatingPointError, match="pool"):
        verification.suite_appendix(0)
    assert threading.active_count() == before


def test_a_sweep_that_loses_matrices_fails(monkeypatch):
    pool_stacks = verification._pool_stacks
    monkeypatch.setattr(verification, "_pool_stacks", lambda pooled: list(pool_stacks(pooled))[1:])
    with pytest.raises(RuntimeError, match="of 10000 matrices"):
        verification.suite_appendix(0)


@pytest.mark.parametrize("seed", [0, 2025935879])
def test_appendix_normal_draws_are_normal_to_roundoff(seed, monkeypatch):
    normal = []
    conjugates = verification._conjugates

    def keep_normal(seeds, diagonals, angles=None):
        e = conjugates(seeds, diagonals, angles)
        if angles is not None and len(e):
            normal.append(e)
        return e

    monkeypatch.setattr(verification, "_conjugates", keep_normal)
    for _ in _appendix_stacks(np.random.default_rng(seed)):
        pass
    # matrix i of the sweep is exactly normal for i = 1 mod 4
    assert sum(len(e) for e in normal) == verification.APPENDIX_COUNT // 4
    for e in normal:
        rep = normality.normality_report(e)
        scale = np.sum(e * e, axis=(1, 2))
        assert np.all(np.abs(rep.frobenius_gap) <= 1e-13 * scale)
        assert np.all(np.abs(rep.sym_gap) <= 1e-13 * scale)
        assert np.all(rep.normality_defect <= 1e-13 * scale)


def test_bounds_accept_a_small_gap_with_a_larger_defect():
    # gap (1 - c)^2 = 1.0e-10 and defect sqrt(2) (1 - c^2) = 2.83e-5: the gap
    # is below 1e-8 while the defect is above 1e-6, as Henrici's bound allows
    c = 1 - 1e-5
    rep = normality.normality_report(np.array([[0.0, 1.0], [-c, 0.0]]))
    assert abs(rep.frobenius_gap - 1e-10) < 1e-15 and abs(rep.normality_defect - 2.83e-5) < 1e-7
    assert verification.normality_bounds_hold(rep, 2)


@pytest.mark.parametrize(
    "gap, sym_gap, defect",
    [(1.0, 0.5, 1e-3), (1e-12, 5e-13, 1.0), (1e-2, 1e-2, 0.1)],
    ids=["henrici", "converse", "sym_gap"],
)
def test_bounds_reject_a_report_that_breaks_a_theorem(gap, sym_gap, defect):
    rep = normality.NormalityReport(
        frobenius_sq=1.0, eigen_abs_sq_sum=1.0 - gap, sym_part_sq=sym_gap, re_sq_sum=0.0, normality_defect=defect
    )
    assert not verification.normality_bounds_hold(rep, 3)


def _family(kind, n, rng):
    if kind == "plain":
        return rng.standard_normal((n, n))
    if kind == "nilpotent":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return q @ np.triu(rng.standard_normal((n, n)), 1) @ q.T
    seed, diagonal = rng.standard_normal((1, n, n)), rng.standard_normal((1, n))
    if kind == "normal":
        return verification._conjugates(seed, diagonal, rng.standard_normal(1))[0]
    return verification._conjugates(seed, diagonal)[0] + 1e-9 * rng.standard_normal((n, n))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["plain", "normal", "near_normal", "nilpotent"]),
    st.integers(2, 10),
    st.integers(0, 10**6),
    st.floats(-3.0, 3.0),
)
def test_bounds_hold_on_every_family_and_scale(kind, n, seed, log_scale):
    e = 10.0**log_scale * _family(kind, n, np.random.default_rng(seed))
    assert verification.normality_bounds_hold(normality.normality_report(e), n)


@pytest.mark.parametrize("seed", [524, 978])
def test_appendix_slow_flows_reach_their_normal_limit_by_the_horizon(seed):
    # the 5x5 flows of these suite seeds stand at a defect of 4.3e-7 and
    # 2.1e-6 at t = 1e3
    rep = verification.suite_appendix(seed)
    assert rep["ok"] and rep["limit_defect"] < 1e-14


# suite seeds whose 5x5 defect rose by more than 1e-9, by up to 3.1e-9, at the
# engine's default tolerances (1e-10 / 1e-12), while DOP853 stepped at its
# stability limit
_RISING_SEEDS = [5, 120, 136, 244, 376, 468, 512, 514, 530, 542, 549, 622, 676, 706, 709, 785, 796, 905]
_RISING_SEEDS += [951, 1009, 1016, 1041, 1058, 1137, 1167, 1171, 1240, 1260, 1329, 1469, 1482, 1519, 1530, 1752, 1893, 1931]


@pytest.mark.parametrize("seed", _RISING_SEEDS)
def test_appendix_5x5_defect_falls_at_the_seeds_where_it_rose(seed, monkeypatch):
    monkeypatch.setattr(verification, "_appendix_sweep", lambda rng: (0.0, True))  # the 5x5 flow does not read it
    rep = verification.suite_appendix(seed)
    assert rep["ok"] and rep["defect_monotone"] and rep["spectrum_drift_5x5"] < 1e-12, rep
