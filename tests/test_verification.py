import numpy as np
import pytest

from pluriflow import normality, verification


def appendix_matrices(rng):
    """Oracle: suite_appendix's sweep built one matrix at a time, in the
    order the matrices are drawn."""
    for i in range(verification.APPENDIX_COUNT):
        n = int(rng.integers(2, 11))
        mode = i % 4
        e = rng.standard_normal((n, n))
        if mode == 1:  # exactly normal: orthogonal conjugate of a block-diagonal normal form
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = np.diag(rng.standard_normal(n))
            t = rng.standard_normal()
            d[1, 1] = d[0, 0]
            d[0, 1], d[1, 0] = -t, t
            e = q @ d @ q.T
        elif mode == 2:  # normal plus a perturbation far below the tolerance band
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            e = q @ np.diag(rng.standard_normal(n)) @ q.T + 1e-9 * rng.standard_normal((n, n))
        yield e


def _multiset(mats):
    return sorted((e.shape, e.tobytes()) for e in mats)


@pytest.mark.parametrize("seed", [0, 7, 271828])
def test_appendix_stacks_match_one_by_one_sweep(seed):
    stacks = list(verification._appendix_stacks(np.random.default_rng(seed)))
    assert all(s.ndim == 3 and s.shape[1] == s.shape[2] for s in stacks)
    batched = _multiset(e for s in stacks for e in s)
    assert batched == _multiset(appendix_matrices(np.random.default_rng(seed)))


def test_appendix_stacks_are_bounded_by_the_chunk():
    stacks = verification._appendix_stacks(np.random.default_rng(1))
    assert max(len(s) for s in stacks) <= verification.APPENDIX_CHUNK


@pytest.mark.parametrize("seed", [0, 2025935879])
def test_appendix_normal_draws_are_normal_to_roundoff(seed):
    rng = np.random.default_rng(seed)
    normal = [e for i, e in enumerate(appendix_matrices(rng)) if i % 4 == 1]
    for n in range(2, 11):
        e = np.array([x for x in normal if x.shape[0] == n])
        rep = normality.normality_report(e)
        scale = np.sum(e * e, axis=(1, 2))
        assert np.all(np.abs(rep.frobenius_gap) <= 1e-13 * scale)
        assert np.all(np.abs(rep.sym_gap) <= 1e-13 * scale)
        assert np.all(rep.normality_defect <= 1e-13 * scale)
