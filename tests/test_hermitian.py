import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pluriflow.almostabelian import AlmostAbelianData, build_bracket, hermitian_frame, p_matrix
from pluriflow.brackets import LieBracket
from pluriflow.catalog import s_ab_data
from pluriflow.hermitian import (
    HermitianFrame,
    bismut_ricci_endomorphism,
    bismut_ricci_general,
    endomorphism_from_form,
    exterior_derivative_c,
    nijenhuis_residual,
    one_one_part,
    skt_residual,
    torsion_three_form,
)
from pluriflow.sampling import random_skt_almost_abelian, random_two_step_skt


def test_frame_validation():
    with pytest.raises(ValueError):
        HermitianFrame(np.eye(4))
    fr = HermitianFrame.antidiagonal(6)
    assert_allclose(fr.J @ fr.J, -np.eye(6))


def test_nijenhuis_zero_and_integrable():
    assert nijenhuis_residual(LieBracket.zero(4).coeffs, HermitianFrame.pairwise(4)) == 0.0
    data = s_ab_data(1.0, 2.0)
    assert nijenhuis_residual(build_bracket(data).coeffs, hermitian_frame(data)) < 1e-14


def test_nijenhuis_detects_noncommuting_A():
    # symmetric A that does not commute with the antidiagonal J1
    a_mat = np.diag([1.0, 2.0, 3.0, 4.0])
    d = 6
    t = np.zeros((d, d, d))
    t[d - 1, 1:5, 1:5] = a_mat.T
    mu = LieBracket(t - t.transpose(1, 0, 2))
    frame = HermitianFrame.antidiagonal(6)
    assert nijenhuis_residual(mu.coeffs, frame) > 0.1


def evaluate(mu, x, y):
    """mu(x, y) from the structure constants."""
    return np.einsum("ijk,i,j->k", mu.coeffs, x, y)


def test_torsion_zero_for_abelian():
    frame = HermitianFrame.pairwise(4)
    assert np.abs(torsion_three_form(LieBracket.zero(4), frame)).max() == 0.0


def test_torsion_central_entry_formula(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    c3 = torsion_three_form(mu, frame)
    d = mu.dim
    e = np.eye(d)
    for z_idx in (d - 2, d - 1):  # central directions
        for i in range(4):
            for j in range(4):
                want = -float(evaluate(mu, frame.J @ e[i], frame.J @ e[j]) @ e[z_idx])
                assert abs(c3[i, j, z_idx] - want) < 1e-12


def test_torsion_equals_j_twisted_domega(rng):
    # c(X,Y,Z) = d(omega)(JX, JY, JZ) for any bracket and compatible J
    data = random_skt_almost_abelian(rng, m=4)
    mu, frame = build_bracket(data), hermitian_frame(data)
    c3 = torsion_three_form(mu, frame)
    w = frame.omega
    j = frame.J
    d = mu.dim

    def domega(x, y, z):
        return -float(evaluate(mu, x, y) @ w @ z) + float(evaluate(mu, x, z) @ w @ y) - float(evaluate(mu, y, z) @ w @ x)

    e = np.eye(d)
    for i in range(d):
        for k in range(i + 1, d):
            for l in range(k + 1, d):
                want = domega(j @ e[i], j @ e[k], j @ e[l])
                assert abs(c3[i, k, l] - want) < 1e-12


def test_dc_zero_for_abelian_and_skt():
    frame = HermitianFrame.pairwise(4)
    mu0 = LieBracket.zero(4)
    assert np.abs(exterior_derivative_c(mu0, torsion_three_form(mu0, frame))).max() == 0.0
    assert skt_residual(mu0, frame) == 0.0
    data = s_ab_data(1.0, np.pi / 2)
    assert skt_residual(build_bracket(data), hermitian_frame(data)) < 1e-13


def test_dc_nonzero_for_nilpotent_jordan_block():
    # a = 0 with a nonzero nilpotent A cannot be pluriclosed
    from pluriflow.sampling import realify

    A = realify(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    data = AlmostAbelianData(0.0, np.zeros(4), A, HermitianFrame.pairwise(4).J)
    res = skt_residual(build_bracket(data), hermitian_frame(data))
    assert res > 1e-3


def test_one_one_part_projector(rng):
    frame = HermitianFrame.antidiagonal(6)
    b = rng.standard_normal((6, 6))
    b = b - b.T
    p1 = one_one_part(b, frame)
    assert_allclose(one_one_part(p1, frame), p1, atol=1e-13)
    assert np.linalg.norm(p1) <= np.linalg.norm(b) + 1e-13
    # omega itself is (1,1)
    assert_allclose(one_one_part(frame.omega, frame), frame.omega)
    # e^1 wedge e^(2n) is J-invariant in the antidiagonal frame
    b2 = np.zeros((6, 6))
    b2[0, 5], b2[5, 0] = 1.0, -1.0
    assert_allclose(one_one_part(b2, frame), b2)


def test_one_one_part_kills_anti_invariant():
    frame = HermitianFrame.pairwise(4)
    # alpha = e^1 ^ e^3 - e^2 ^ e^4 satisfies alpha(J., J.) = -alpha
    b = np.zeros((4, 4))
    b[0, 2], b[2, 0] = 1.0, -1.0
    b[1, 3], b[3, 1] = -1.0, 1.0
    assert np.abs(one_one_part(b, frame)).max() < 1e-14


def test_endomorphism_from_form_basic():
    frame = HermitianFrame.antidiagonal(6)
    assert_allclose(endomorphism_from_form(2.0 * frame.omega, frame), np.eye(6), atol=1e-13)
    assert np.abs(endomorphism_from_form(np.zeros((6, 6)), frame)).max() == 0.0


def test_endomorphism_from_form_rejects_non_11():
    frame = HermitianFrame.pairwise(4)
    b = np.zeros((4, 4))
    b[0, 2], b[2, 0] = 1.0, -1.0
    b[1, 3], b[3, 1] = -1.0, 1.0
    for s in (1.0, 1e-12):  # refused at the form's own scale
        with pytest.raises(ValueError):
            endomorphism_from_form(s * b, frame)


def test_endomorphism_form_round_trip(rng):
    frame = HermitianFrame.pairwise(4)
    p = rng.standard_normal((4, 4))
    p = 0.5 * (p + p.T)
    p = 0.5 * (p - frame.J @ p @ frame.J)  # J-commuting symmetric
    # omega(P X, Y) = (P X)^t W Y, so the form matrix is P^t W
    alpha = 2.0 * p.T @ frame.omega
    back = endomorphism_from_form(alpha, frame)
    assert_allclose(back, p, atol=1e-12)


def test_bismut_ricci_abelian_is_zero():
    frame = HermitianFrame.pairwise(4)
    assert np.abs(bismut_ricci_general(LieBracket.zero(4), frame)).max() == 0.0


def test_bismut_ricci_matches_closed_form(rng):
    for _ in range(10):
        data = random_skt_almost_abelian(rng, m=4)
        mu, frame = build_bracket(data), hermitian_frame(data)
        rho = bismut_ricci_general(mu, frame)
        want = np.zeros((6, 6))
        coef = -(data.a**2 + 0.5 * data.a * np.trace(data.A) + data.v @ data.v)
        want[0, 5], want[5, 0] = coef, -coef
        atv = data.A.T @ data.v
        want[1:5, 5] = -atv
        want[5, 1:5] = atv
        assert np.abs(rho - want).max() < 1e-11


def test_bismut_p_matches_block_formula(rng):
    for _ in range(10):
        data = random_skt_almost_abelian(rng, m=6)
        mu, frame = build_bracket(data), hermitian_frame(data)
        assert np.abs(bismut_ricci_endomorphism(mu, frame) - p_matrix(data)).max() < 1e-11


def test_bismut_p_matches_nilpotent_route(rng):
    from pluriflow.nilflow import NilpotentSplitting, p_endomorphism_nil

    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    split = NilpotentSplitting.from_bracket(mu, frame)
    assert np.abs(bismut_ricci_endomorphism(mu, frame) - p_endomorphism_nil(split)).max() < 1e-11


# the (blocks, dim_z) splits of perfbench's check workload, d = 6..16
CHECK_SPLITS = [(2, 2), (2, 4), (3, 4), (4, 4), (4, 6), (4, 8)]


def _einsum_torsion(mu, frame):
    """The Bismut torsion by one three-operand einsum: torsion_three_form's oracle."""
    b = np.einsum("ai,bj,abk->ijk", frame.J, frame.J, mu.coeffs, optimize=True)
    return -b - b.transpose(1, 2, 0) - b.transpose(2, 0, 1)


def _dense_skt_residual(mu, frame):
    """Max coefficient of the dense (d, d, d, d) d(c) of the einsum torsion:
    skt_residual's oracle."""
    return float(np.abs(exterior_derivative_c(mu, _einsum_torsion(mu, frame))).max())


def _einsum_nijenhuis_residual(mu, frame):
    """N_J as three einsums: nijenhuis_residual's oracle."""
    c, j = mu.coeffs, frame.J
    n = (
        c
        + np.einsum("kl,mi,mjl->ijk", j, j, c, optimize=True)
        + np.einsum("kl,mj,iml->ijk", j, j, c, optimize=True)
        - np.einsum("mi,nj,mnk->ijk", j, j, c, optimize=True)
    )
    return float(np.sqrt((n**2).sum(axis=-1)).max())


def _generic_bracket(rng, d):
    t = rng.standard_normal((d, d, d))
    return LieBracket(t - t.transpose(1, 0, 2))


def _unchecked_bracket(t):
    """A LieBracket holding t as given: an infinite coefficient fails the
    constructor's antisymmetry check (inf - inf is NaN)."""
    mu = object.__new__(LieBracket)
    object.__setattr__(mu, "coeffs", t)
    return mu


@pytest.mark.parametrize("blocks, dim_z", CHECK_SPLITS)
def test_sliced_skt_residual_is_the_dense_one_bit_for_bit_on_two_step_inputs(rng, blocks, dim_z):
    for _ in range(5):
        mu, frame = random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
        assert np.array_equal(torsion_three_form(mu, frame), _einsum_torsion(mu, frame))
        assert skt_residual(mu, frame) == _dense_skt_residual(mu, frame)
        assert nijenhuis_residual(mu.coeffs, frame) == _einsum_nijenhuis_residual(mu, frame)


def test_sliced_residuals_match_the_dense_ones_on_generic_brackets(rng):
    for d in range(2, 22, 2):
        pairwise = HermitianFrame.pairwise(d)
        for _ in range(4):
            mu = _generic_bracket(rng, d)
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            rotated = HermitianFrame(q @ pairwise.J @ q.T)
            c3 = _einsum_torsion(mu, rotated)
            assert np.abs(torsion_three_form(mu, rotated) - c3).max() <= 1e-15 * np.abs(c3).max()
            assert_allclose(skt_residual(mu, rotated), _dense_skt_residual(mu, rotated), rtol=1e-15, atol=0)
            assert_allclose(nijenhuis_residual(mu.coeffs, rotated), _einsum_nijenhuis_residual(mu, rotated), rtol=1e-15, atol=0)
            assert nijenhuis_residual(mu.coeffs, pairwise) == _einsum_nijenhuis_residual(mu, pairwise)
            # cli._load_input reads N_J on the scaled coefficients, which a bracket would hold unchanged
            scaled = mu.coeffs / np.abs(mu.coeffs).max()
            assert np.array_equal(LieBracket(scaled).coeffs, scaled)


@pytest.mark.parametrize("scale", [1e200, np.inf])
def test_sliced_residuals_overflow_as_the_dense_ones(scale):
    # [e1, e2] = e3; [e1, e2] = e1 with [e1, e3] = e2; [e1, e2] = e3 with [e1, e3] = e4
    frame = HermitianFrame.pairwise(4)
    for entries in ([(0, 1, 2)], [(0, 1, 0), (0, 2, 1)], [(0, 1, 2), (0, 2, 3)]):
        t = np.zeros((4, 4, 4))
        for i, j, k in entries:
            t[i, j, k], t[j, i, k] = scale, -scale
        mu = _unchecked_bracket(t)
        with np.errstate(all="ignore"):
            got = [skt_residual(mu, frame), nijenhuis_residual(mu.coeffs, frame)]
            want = [_dense_skt_residual(mu, frame), _einsum_nijenhuis_residual(mu, frame)]
        assert np.array_equal(got, want, equal_nan=True)


def test_skt_residual_forms_no_d4_array(rng):
    d = 40
    mu = _generic_bracket(rng, d)
    tracemalloc.start()
    try:
        skt_residual(mu, HermitianFrame.pairwise(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (d, d, d, d) array takes d * d^3 * 8 bytes
    assert peak < 10 * d**3 * 8
