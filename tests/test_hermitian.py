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
    generalized_kahler_check,
    is_skt_general,
    is_static,
    nijenhuis_residual,
    one_one_part,
    skt_residual,
    torsion_three_form,
)
from pluriflow.sampling import random_skt_almost_abelian, random_two_step_skt


def ten_dim(v_tail):
    from pluriflow.catalog import get_entry

    entry = get_entry("steady10" if v_tail else "shrink10")
    return entry.data


def test_frame_validation():
    with pytest.raises(ValueError):
        HermitianFrame(np.eye(4))
    fr = HermitianFrame.antidiagonal(6)
    assert_allclose(fr.J @ fr.J, -np.eye(6))


def test_nijenhuis_zero_and_integrable():
    assert nijenhuis_residual(LieBracket.zero(4), HermitianFrame.pairwise(4)) == 0.0
    data = s_ab_data(1.0, 2.0)
    assert nijenhuis_residual(build_bracket(data), hermitian_frame(data)) < 1e-14


def test_nijenhuis_detects_noncommuting_A():
    # symmetric A that does not commute with the antidiagonal J1
    a_mat = np.diag([1.0, 2.0, 3.0, 4.0])
    d = 6
    t = np.zeros((d, d, d))
    t[d - 1, 1:5, 1:5] = a_mat.T
    mu = LieBracket(t - t.transpose(1, 0, 2))
    frame = HermitianFrame.antidiagonal(6)
    assert nijenhuis_residual(mu, frame) > 0.1


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
                want = -float(mu(frame.J @ e[i], frame.J @ e[j]) @ e[z_idx])
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
        return -float(mu(x, y) @ w @ z) + float(mu(x, z) @ w @ y) - float(mu(y, z) @ w @ x)

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
    data = s_ab_data(1.0, np.pi / 2)
    assert skt_residual(build_bracket(data), hermitian_frame(data)) < 1e-13


def test_dc_nonzero_for_nilpotent_jordan_block():
    # a = 0 with a nonzero nilpotent A cannot be pluriclosed
    from pluriflow.sampling import realify

    A = realify(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    data = AlmostAbelianData(0.0, np.zeros(4), A, HermitianFrame.pairwise(4).J)
    res = skt_residual(build_bracket(data), hermitian_frame(data))
    assert res > 1e-3


def test_is_skt_general_thresholds():
    data = s_ab_data(1.0, np.pi / 2)
    ok, res = is_skt_general(build_bracket(data), hermitian_frame(data), tol=1e-9)
    assert ok and res < 1e-9


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


def test_is_static_examples():
    frame = HermitianFrame.pairwise(4)
    assert is_static(LieBracket.zero(4), frame) == 0.0
    steady = ten_dim(1.0)
    assert abs(is_static(build_bracket(steady), hermitian_frame(steady))) < 1e-12
    shrink = ten_dim(0.0)
    assert is_static(build_bracket(shrink), hermitian_frame(shrink)) is None


def test_generalized_kahler_check():
    sab = s_ab_data(1.0, np.pi / 2)
    assert generalized_kahler_check(sab.a, sab.v, sab.A, sab.J1)
    steady = ten_dim(1.0)
    assert not generalized_kahler_check(steady.a, steady.v, steady.A, steady.J1)
    shrink = ten_dim(0.0)
    assert generalized_kahler_check(shrink.a, shrink.v, shrink.A, shrink.J1)


_SCALES = (1e3, 1.0, 1e-3, 1e-5, 1e-6, 1e-9, 1e-10, 1e-12)


def _scaled(data, s):
    return data.replace(a=s * data.a, v=s * data.v, A=s * data.A)


def test_generalized_kahler_check_does_not_depend_on_the_data_scale():
    # with a floor of 1 on [A, J1] and absolute cutoffs on the closure
    # residual and on |v|, steady10 and the generic draw read True at 1e-10
    from pluriflow.catalog import get_entry
    from pluriflow.sampling import random_generic_almost_abelian

    wants = (("s_ab(1, pi/2)", True), ("shrink10", True), ("steady10", False))
    cases = [(get_entry(name).data, want) for name, want in wants]
    cases.append((random_generic_almost_abelian(np.random.default_rng(1), m=4), False))
    for data, want in cases:
        for s in _SCALES:
            d = _scaled(data, s)
            assert generalized_kahler_check(d.a, d.v, d.A, d.J1) is want, s


@pytest.mark.parametrize("name", ["shrink10", "steady10", "s_ab(1, pi/2)"])
def test_is_static_does_not_depend_on_the_data_scale(name):
    # rho^B is quadratic in the bracket; against an absolute cutoff shrink10
    # read static at 1e-5 with alpha = 4e-11
    from pluriflow.catalog import get_entry

    data = get_entry(name).data
    want = is_static(build_bracket(data), hermitian_frame(data))
    for s in _SCALES:
        d = _scaled(data, s)
        got = is_static(build_bracket(d), hermitian_frame(d))
        assert (got is None) == (want is None), s
        if want is not None:
            assert abs(got / s**2 - want) <= 1e-12, s
