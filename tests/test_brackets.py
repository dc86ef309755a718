import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from pluriflow import brackets
from pluriflow import almostabelian as aa
from pluriflow.brackets import (
    LieBracket,
    basis_change_action,
    bracket_inner_product,
    bracket_norm,
    center,
    derivation_space,
    infinitesimal_action,
    jacobi_residual,
    nullspace,
)
from pluriflow.catalog import kodaira_bracket, s_ab_data
from pluriflow.almostabelian import build_bracket
from pluriflow.hermitian import HermitianFrame
from pluriflow.nilflow import NilpotentSplitting, p_endomorphism_nil
from pluriflow.sampling import random_skt_almost_abelian, random_two_step_skt


def random_bracket(rng, dim):
    t = rng.standard_normal((dim, dim, dim))
    return LieBracket(t - t.transpose(1, 0, 2))


def evaluate(mu, x, y):
    """mu(x, y) from the structure constants."""
    return np.einsum("ijk,i,j->k", mu.coeffs, x, y)


def test_eval_zero_bracket():
    mu = LieBracket.zero(4)
    assert_allclose(evaluate(mu, np.ones(4), np.arange(4.0)), np.zeros(4))


def test_eval_kodaira_structure_constant():
    mu, _ = kodaira_bracket()
    e = np.eye(4)
    assert_allclose(evaluate(mu, e[0], e[1]), e[2])
    assert_allclose(evaluate(mu, e[1], e[0]), -e[2])


def test_eval_s_ab_column():
    data = s_ab_data(1.0, np.pi / 2)
    mu = build_bracket(data)
    e = np.eye(6)
    expected = np.zeros(6)
    expected[1:5] = data.A[:, 0]
    assert_allclose(evaluate(mu, e[5], e[1]), expected)


def test_jacobi_zero_and_almost_abelian():
    assert jacobi_residual(LieBracket.zero(4)) == 0.0
    data = s_ab_data(0.7, 1.3).replace(v=np.array([1.0, -2.0, 0.5, 0.0]))
    assert jacobi_residual(build_bracket(data)) < 1e-12


def test_jacobi_violation_is_positive():
    # mu(e1,e2) = e1, mu(e1,e3) = e2: the cyclic sum is -e2 on (e1,e2,e3)
    mu = LieBracket.from_entries(4, [(0, 1, 0, 1.0), (0, 2, 1, 1.0)])
    assert jacobi_residual(mu) > 0.5


def _dense_jacobi_residual(mu):
    """The cyclic sum as one (d, d, d, d) einsum: jacobi_residual's oracle."""
    c = mu.coeffs
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.sqrt((cyc**2).sum(axis=-1)).max())


@pytest.mark.parametrize("blocks, dim_z", [(2, 2), (2, 4), (3, 4), (4, 4), (4, 6), (4, 8)])
def test_sliced_jacobi_residual_is_the_dense_one_on_two_step_inputs(rng, blocks, dim_z):
    # the splits of perfbench's check workload; every double bracket is 0
    for _ in range(5):
        mu, _ = random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
        assert jacobi_residual(mu) == _dense_jacobi_residual(mu) == 0.0


def test_sliced_jacobi_residual_matches_the_dense_one_on_generic_brackets(rng):
    for d in range(2, 22, 2):
        for _ in range(4):
            mu = random_bracket(rng, d)
            assert_allclose(jacobi_residual(mu), _dense_jacobi_residual(mu), rtol=1e-15, atol=0)


@pytest.mark.parametrize("scale", [1e200, np.inf])
def test_sliced_jacobi_residual_overflows_as_the_dense_one(scale):
    # [e1, e2] = e3; [e1, e2] = e1 with [e1, e3] = e2; [e1, e2] = e3 with [e3, e4] = e1
    for entries in ([(0, 1, 2)], [(0, 1, 0), (0, 2, 1)], [(0, 1, 2), (2, 3, 0)]):
        t = np.zeros((4, 4, 4))
        for i, j, k in entries:
            t[i, j, k], t[j, i, k] = scale, -scale
        mu = object.__new__(LieBracket)  # an inf coefficient fails the antisymmetry check
        object.__setattr__(mu, "coeffs", t)
        with np.errstate(all="ignore"):
            got, want = jacobi_residual(mu), _dense_jacobi_residual(mu)
        assert np.array_equal(got, want, equal_nan=True)


def test_jacobi_residual_forms_no_d4_array(rng):
    d = 40
    mu = random_bracket(rng, d)
    tracemalloc.start()
    try:
        jacobi_residual(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (d, d, d, d) array takes d * d^3 * 8 bytes
    assert peak < 10 * d**3 * 8


def test_basis_change_identity_and_scaling(rng):
    mu = random_bracket(rng, 4)
    assert_allclose(basis_change_action(np.eye(4), mu).coeffs, mu.coeffs)
    c = 2.5
    scaled = basis_change_action(c * np.eye(4), mu)
    assert_allclose(scaled.coeffs, mu.coeffs / c, atol=1e-14)


def test_basis_change_orthogonal_preserves_norm_and_jacobi(rng):
    mu = build_bracket(s_ab_data(1.0, 2.0))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    moved = basis_change_action(q, mu)
    assert abs(bracket_norm(moved) - bracket_norm(mu)) < 1e-12
    assert jacobi_residual(moved) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_basis_change_composition(seed):
    rng = np.random.default_rng(seed)
    mu = random_bracket(rng, 4)
    h1 = expm(0.3 * rng.standard_normal((4, 4)))
    h2 = expm(0.3 * rng.standard_normal((4, 4)))
    lhs = basis_change_action(h1, basis_change_action(h2, mu))
    rhs = basis_change_action(h1 @ h2, mu)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


def test_infinitesimal_action_identity_is_minus_mu(rng):
    mu = random_bracket(rng, 4)
    assert_allclose(infinitesimal_action(np.eye(4), mu).coeffs, -mu.coeffs)


def test_infinitesimal_action_kills_derivations():
    mu, _ = kodaira_bracket()
    d = np.diag([1.0, 1.0, 2.0, 0.7])
    assert np.abs(infinitesimal_action(d, mu).coeffs).max() < 1e-14


def test_infinitesimal_action_finite_difference(rng):
    mu = random_bracket(rng, 4)
    a = rng.standard_normal((4, 4))
    a /= np.linalg.norm(a)
    t = 1e-6
    fd = (basis_change_action(expm(t * a), mu).coeffs - mu.coeffs) / t
    assert np.abs(fd - infinitesimal_action(a, mu).coeffs).max() < 1e-5


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_infinitesimal_action_is_a_representation(seed):
    rng = np.random.default_rng(seed)
    mu = random_bracket(rng, 4)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    lhs = infinitesimal_action(a @ b - b @ a, mu).coeffs
    rhs = (
        infinitesimal_action(a, infinitesimal_action(b, mu)).coeffs
        - infinitesimal_action(b, infinitesimal_action(a, mu)).coeffs
    )
    assert np.abs(lhs - rhs).max() < 1e-10


def test_inner_product_positive_definite(rng):
    mu = random_bracket(rng, 4)
    assert bracket_inner_product(mu, mu) > 0
    assert bracket_inner_product(LieBracket.zero(4), LieBracket.zero(4)) == 0.0


def test_inner_product_kodaira_conventions():
    mu, _ = kodaira_bracket()
    # one structure constant 1, counted as (1, 2) and as (2, 1)
    assert bracket_inner_product(mu, mu) == 2.0


def test_center_zero_bracket_is_everything():
    z = center(LieBracket.zero(4))
    assert z.shape == (4, 4)


def test_center_kodaira():
    mu, _ = kodaira_bracket()
    z = center(mu)
    assert z.shape[1] == 2
    # span must be e3, e4
    proj = z @ z.T
    assert_allclose(proj[2:, 2:], np.eye(2), atol=1e-12)
    assert np.abs(proj[:2, :]).max() < 1e-12


def test_center_trivial_for_invertible_A():
    data = s_ab_data(1.0, 2.0)  # A invertible, a != 0
    assert center(build_bracket(data)).shape[1] == 0


def test_derivation_space_dimensions():
    j = HermitianFrame.pairwise(4).J
    assert len(derivation_space(LieBracket.zero(4), commute_with=j)) == 8


def test_derivation_space_contains_grading_derivation():
    mu, frame = kodaira_bracket()
    basis = derivation_space(mu, commute_with=frame.J)
    d = np.diag([1.0, 1.0, 2.0, 2.0])
    # d must lie in the span of the returned orthonormal basis
    coeffs = [np.sum(d * b) for b in basis]
    recon = sum(c * b for c, b in zip(coeffs, basis))
    assert np.abs(recon - d).max() < 1e-9


def test_nullspace_wide_matrix(rng):
    # fewer rows than columns: the economy SVD would miss the complement
    m = rng.standard_normal((2, 5))
    ns = nullspace(m)
    assert ns.shape == (5, 3)
    assert np.abs(m @ ns).max() < 1e-14
    assert_allclose(ns.T @ ns, np.eye(3), atol=1e-14)
    assert nullspace(np.zeros((2, 5))).shape == (5, 5)
    tall = np.vstack([m, m, m])
    assert_allclose(nullspace(tall) @ nullspace(tall).T, ns @ ns.T, atol=1e-13)


def _dense_derivation_space(mu, commute_with):
    """The stacked (d^3 + d^2) x d^2 system, one column per matrix unit E_ab:
    pi(E_ab) mu by infinitesimal_action, and [E_ab, J]; its null space by SVD."""
    d = mu.dim
    j = np.asarray(commute_with, dtype=float)
    cols = [
        np.concatenate([infinitesimal_action(e, mu).coeffs.ravel(), (e @ j - j @ e).ravel()])
        for e in np.eye(d * d).reshape(-1, d, d)
    ]
    ns = nullspace(np.array(cols).T)
    return list(ns.T.reshape(-1, d, d))


def _span_projector(basis):
    m = np.array([b.ravel() for b in basis]).T
    return m @ m.T


def _oracle_inputs():
    """(bracket, J, P) on the check workload's shapes: v = 0
    almost-abelian solitons at d = 6..18, 2-step brackets at d = 6..16, and a
    2-step bracket with J rotated to Q J0 Q^t."""
    rng = np.random.default_rng(11)
    for m in range(4, 17, 2):
        data = random_skt_almost_abelian(rng, m=m).replace(v=np.zeros(m))
        p = aa.p_matrix(data)
        yield pytest.param(build_bracket(data), aa.hermitian_frame(data).J, p, id=f"soliton_d{m + 2}")
    two_step = [random_two_step_skt(rng, blocks=b, dim_z=z) for b, z in ((2, 2), (2, 4), (3, 4), (4, 4), (4, 6), (4, 8))]
    mu, frame = two_step[2]
    q, _ = np.linalg.qr(rng.standard_normal((mu.dim, mu.dim)))
    two_step.append((basis_change_action(q, mu), HermitianFrame(q @ frame.J @ q.T)))
    for k, (mu, frame) in enumerate(two_step):
        p = p_endomorphism_nil(NilpotentSplitting.from_bracket(mu, frame))
        yield pytest.param(mu, frame.J, p, id=f"two_step_{k}_d{mu.dim}")


@pytest.mark.parametrize("mu, j, p", list(_oracle_inputs()))
def test_derivation_space_matches_dense_oracle(monkeypatch, soliton_fit, mu, j, p):
    got = derivation_space(mu, commute_with=j)
    want = _dense_derivation_space(mu, commute_with=j)
    assert len(got) == len(want) > 0
    assert np.abs(_span_projector(got) - _span_projector(want)).max() < 1e-10
    for dm in got:
        assert np.abs(dm @ j - j @ dm).max() < 1e-12
    alpha = soliton_fit(p, mu, j)[0]
    monkeypatch.setattr(brackets, "derivation_space", _dense_derivation_space)
    alpha_oracle = soliton_fit(p, mu, j)[0]
    assert abs(alpha - alpha_oracle) <= 1e-12 * abs(alpha_oracle)


def test_derivation_space_rejects_a_j_that_is_no_complex_structure():
    with pytest.raises(ValueError, match="orthogonal"):
        derivation_space(LieBracket.zero(4), commute_with=2.0 * HermitianFrame.pairwise(4).J)


def test_json_round_trip(rng):
    data = s_ab_data(1.0, np.pi / 2)
    mu = build_bracket(data)
    back = LieBracket.from_json_dict(mu.to_json_dict())
    assert_allclose(back.coeffs, mu.coeffs)


def test_json_rejects_bad_indices():
    with pytest.raises(ValueError):
        LieBracket.from_json_dict({"dim": 4, "entries": [{"i": 2, "j": 1, "k": 1, "c": 1.0}]})
    with pytest.raises(ValueError):
        LieBracket.from_json_dict({"dim": 3, "entries": []})
