import copy
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pluriflow import almostabelian as aa
from pluriflow import engine
from pluriflow.brackets import LieBracket, bracket_norm, infinitesimal_action, jacobi_residual
from pluriflow.catalog import get_entry, s_ab_data
from pluriflow.hermitian import HermitianFrame
from pluriflow.normality import normality_defect
from pluriflow.sampling import (
    random_generic_almost_abelian,
    random_skt_almost_abelian,
    random_unitary_commuting,
)


@pytest.fixture
def shrink():
    return get_entry("shrink10").data


@pytest.fixture
def steady():
    return get_entry("steady10").data


@pytest.fixture
def sab():
    return get_entry("s_ab(1, pi/2)").data


def test_data_validation():
    with pytest.raises(ValueError):
        aa.AlmostAbelianData(1.0, np.zeros(4), np.diag([1.0, 2, 3, 4]), HermitianFrame.antidiagonal(4).J)
    with pytest.raises(ValueError):
        aa.AlmostAbelianData(1.0, np.zeros(3), np.eye(3), np.eye(3))
    # |[A, J1]| = 2 max |A| at every scale, so no scale of A is integrable
    for s in (1e-13, 1.0, 1e16):
        with pytest.raises(ValueError, match="not integrable"):
            aa.AlmostAbelianData(1.0, np.zeros(2), s * np.diag([1.0, -1.0]), HermitianFrame.pairwise(2).J)


def test_build_bracket_examples(sab, shrink):
    assert jacobi_residual(aa.build_bracket(aa.AlmostAbelianData(0.0, np.zeros(4), np.zeros((4, 4)), HermitianFrame.antidiagonal(4).J))) == 0.0
    lam = np.sort_complex(np.linalg.eigvals(sab.A))
    want = np.sort_complex(np.array([-0.5, -0.5, 1j * np.pi / 2, -1j * np.pi / 2]))
    assert np.abs(lam - want).max() < 1e-12
    mu = aa.build_bracket(shrink)
    ad = mu.coeffs[9, :9].T  # ad[k, j] = <[e_10, e_j], e_k>
    assert abs(np.trace(ad) - (-4.0)) < 1e-12  # a + tr A = 2 - 6: non-unimodular


def test_bracket_jacobi_random(rng):
    for _ in range(5):
        data = random_generic_almost_abelian(rng, m=6)
        assert jacobi_residual(aa.build_bracket(data)) < 1e-12


def test_skt_verdict_catalog(sab, shrink, steady):
    assert aa.skt_verdict(sab).k == 1
    assert aa.skt_verdict(shrink).k == 3
    assert aa.skt_verdict(steady).is_skt


def test_skt_verdict_rejects_symmetric_A_with_zero_a():
    # a tr(A) = 0 forces A skew for SKT; a nonzero symmetric A must fail
    data = aa.AlmostAbelianData(0.0, np.zeros(4), 0.7 * np.eye(4), HermitianFrame.pairwise(4).J)
    v = aa.skt_verdict(data)
    assert not v.is_skt
    assert v.residual_lemma > 0.1


def test_skt_verdict_generic_and_constructed(rng):
    for _ in range(25):
        assert aa.skt_verdict(random_skt_almost_abelian(rng, m=6)).is_skt
    bad = 0
    for _ in range(25):
        if not aa.skt_verdict(random_generic_almost_abelian(rng, m=6)).is_skt:
            bad += 1
    assert bad == 25


def _spectral_criterion(data):
    """Oracle: A normal with eigenvalue real parts in {0, -a/2}, each within
    1e-7 of the scale."""
    scale = max(1.0, float(np.linalg.norm(data.A)), abs(data.a))
    re = np.linalg.eigvals(data.A).real
    re_dev = float(np.minimum(np.abs(re), np.abs(re + data.a / 2)).max())
    return normality_defect(data.A) < 1e-7 * scale**2 and re_dev < 1e-7 * scale


def _multiplicity_k(data):
    """Oracle: half the multiplicity of -a/2 among the eigenvalues of sym(A)."""
    s = np.linalg.eigvalsh(0.5 * (data.A + data.A.T))
    scale = max(np.abs(s).max(initial=0.0), abs(data.a) / 2, np.linalg.norm(data.A))
    return int(np.sum(np.abs(s + data.a / 2) < 1e-8 * scale)) // 2


def test_closure_verdict_matches_the_spectral_oracles(rng):
    for i in range(200):
        m = (2, 4, 6, 8)[i % 4]
        skt = random_skt_almost_abelian(rng, m=m, allow_zero_a=i % 8 == 0)
        generic = random_generic_almost_abelian(rng, m=m)
        # generic draws lie far outside both criteria's tolerance bands
        scale = max(1.0, float(np.linalg.norm(generic.A)), abs(generic.a))
        assert aa.skt_verdict(generic).residual_lemma > 1e-4 * scale**2
        for data, want in ((skt, True), (generic, False)):
            verdict = aa.skt_verdict(data)
            assert verdict.is_skt is want and _spectral_criterion(data) is want
            assert data._skt_k == (want, verdict.k)  # the decision ReducedFlow and classify take
        if skt.a != 0.0:
            assert aa.skt_verdict(skt).k == _multiplicity_k(skt)


def test_skt_verdict_between_the_criteria_tolerances():
    # the closure residual 1.4e-8 is above its band, the real-part deviation
    # 1e-8 within the spectral one: the closure criterion decides
    data = aa.AlmostAbelianData(1.0, [0.1, 0.0], 1e-8 * np.eye(2), HermitianFrame.antidiagonal(2).J)
    assert _spectral_criterion(data)
    verdict = aa.skt_verdict(data)
    assert not verdict.is_skt and verdict.residual_lemma > 1e-9
    assert verdict.k == 1


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e-5, 1e-8])
def test_skt_verdict_is_scale_invariant(s):
    # the closure residual is quadratic in (a, A): small data must not pass
    # a tolerance meant for unit scale
    rng = np.random.default_rng(0)
    for _ in range(10):
        generic = random_generic_almost_abelian(rng, m=4)
        skt = random_skt_almost_abelian(rng, m=4, allow_zero_a=True)
        for data, want in ((generic, False), (skt, True)):
            scaled = replace(data, a=s * data.a, v=s * data.v, A=s * data.A)
            assert aa.skt_verdict(scaled).is_skt is want
            if not want:
                with pytest.raises(ValueError, match="not pluriclosed"):
                    aa.ReducedFlow(scaled)
    zero = aa.AlmostAbelianData(0.0, np.zeros(2), np.zeros((2, 2)), HermitianFrame.antidiagonal(2).J)
    assert aa.skt_verdict(zero).is_skt


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4, 8, 16]))
def test_k_counts_eigenvalues_on_sampled_data(seed, m):
    # when a = 0, sym(A) is roundoff alone and must not count as rank
    data = random_skt_almost_abelian(np.random.default_rng(seed), m=m, allow_zero_a=True)
    re = np.linalg.eigvals(data.A).real
    tol = 1e-7 * max(1.0, abs(data.a), float(np.linalg.norm(data.A)))
    want = int(np.sum(np.abs(re + data.a / 2) <= tol)) // 2 if data.a != 0.0 else 0
    assert aa.skt_verdict(data).k == want
    if data.a == 0.0:
        assert aa.classify(data).table_case == "i"


def test_trace_relation_for_skt(rng):
    for _ in range(10):
        data = random_skt_almost_abelian(rng, m=6)
        k = aa.skt_verdict(data).k
        assert abs(np.trace(data.A) + k * data.a) < 1e-9 * max(1.0, abs(data.a))


def test_p_components_examples(shrink, steady, rng):
    c1 = aa.p_components(shrink)
    assert abs(c1.c - 1.0) < 1e-14 and np.abs(c1.w).max() == 0.0
    c2 = aa.p_components(steady)
    assert abs(c2.c) < 1e-14 and np.abs(c2.w).max() == 0.0
    # a = 0, A skew: c = -|v|^2/2, w = -A^t v / 4
    j2 = HermitianFrame.pairwise(2).J
    A = 1.3 * np.kron(np.eye(2), j2)
    v = rng.standard_normal(4)
    data = aa.AlmostAbelianData(0.0, v, A, HermitianFrame.pairwise(4).J)
    c3 = aa.p_components(data)
    assert abs(c3.c + 0.5 * v @ v) < 1e-12
    assert_allclose(c3.w, -0.25 * A.T @ v)


def test_p_matrix_symmetric_and_j_commuting(rng):
    data = random_skt_almost_abelian(rng, m=6)
    p = aa.p_matrix(data)
    j = aa.hermitian_frame(data).J
    assert np.abs(p - p.T).max() < 1e-12
    assert np.abs(p @ j - j @ p).max() < 1e-12


def test_gauge_matrix_properties(sab, rng):
    u = aa.gauge_matrix(sab)
    # v = 0: only the (a/4)(A - A^t) middle block survives
    assert np.abs(u[0, :]).max() == 0.0 and np.abs(u[:, -1]).max() == 0.0
    assert_allclose(u[1:5, 1:5], (sab.a / 4.0) * (sab.A - sab.A.T))
    for _ in range(5):
        data = random_skt_almost_abelian(rng, m=6)
        u = aa.gauge_matrix(data)
        j = aa.hermitian_frame(data).J
        assert np.abs(u + u.T).max() < 1e-12
        assert np.abs(u @ j - j @ u).max() < 1e-12


def _field(data, mode=aa.UNNORMALIZED):
    """(a', v', A') of the reduced flow in the given mode at data, decoded from
    (r', v'): (a, A) moves along its direction, so (a', A') = (r' / r)(a, A)."""
    x = data.to_state()
    f = aa.ReducedFlow(data, mode).field(x)
    lam_dot = f[0] / x[0]
    return lam_dot * data.a, f[1:], lam_dot * data.A


def test_reduced_field_fixed_points_and_scaling(steady, shrink):
    da, dv, dA = _field(steady)
    assert abs(da) == 0.0 and np.abs(dv).max() < 1e-15 and np.abs(dA).max() == 0.0
    da, dv, dA = _field(shrink)
    assert abs(da - shrink.a**3 / 4.0) < 1e-14
    assert_allclose(dA, (shrink.a**2 / 4.0) * shrink.A)


def _concatenated_field(flow, x):
    """ReducedFlow.field as one np.concatenate of its two parts: the same
    operations in the same order as the in-place form."""
    v = x[1:]
    vv = float(v.dot(v))
    lam2 = 1.0 if flow.mode == aa.A_NORM_FIXED else (x[0] / flow._r0) ** 2
    c = 0.0 if flow.mode == aa.A_NORM_FIXED else lam2 * flow.c - 0.5 * vv
    return np.concatenate([[c * x[0]], lam2 * flow._s0.dot(v) + (c - 0.5 * vv) * v])


@pytest.mark.parametrize("mode", [aa.UNNORMALIZED, aa.A_NORM_FIXED])
def test_reduced_field_is_bitwise_the_concatenated_formula(rng, mode):
    for m in (2, 4, 8):
        data = random_skt_almost_abelian(rng, m=m)
        flow = aa.ReducedFlow(data, mode)
        x = data.to_state()
        for y in (x, x * (1.0 + 0.1 * rng.standard_normal(x.size))):
            f = flow.field(y)
            assert f.dtype == y.dtype and np.array_equal(f.view(np.uint64), _concatenated_field(flow, y).view(np.uint64))


def test_reduced_field_cubic_homogeneity(rng):
    data = random_skt_almost_abelian(rng, m=4)
    s = 1.7
    scaled = data.replace(a=s * data.a, v=s * data.v, A=s * data.A)
    f1 = aa.ReducedFlow(data).field(data.to_state())
    f2 = aa.ReducedFlow(scaled).field(scaled.to_state())
    assert np.abs(f2 - s**3 * f1).max() < 1e-10


def test_full_field_matches_reduced_field(rng):
    # -pi(P - U) mu applied to the built bracket equals the built derivative
    for _ in range(5):
        data = random_skt_almost_abelian(rng, m=6)
        mu = aa.build_bracket(data)
        p = aa.p_matrix(data)
        u = aa.gauge_matrix(data)
        full = LieBracket(-infinitesimal_action(p - u, mu).coeffs)
        da, dv, dA = _field(data)
        derivative = aa.build_bracket(aa.AlmostAbelianData(da, dv, dA, data.J1))
        assert np.abs(full.coeffs - derivative.coeffs).max() < 1e-10


def test_normalized_field(sab, rng):
    assert np.abs(_field(sab, aa.A_NORM_FIXED)[1]).max() == 0.0  # v = 0
    data = random_skt_almost_abelian(rng, m=4)
    _, dv_n, _ = _field(data, aa.A_NORM_FIXED)
    da, dv, dA = _field(data)
    c = aa.p_components(data).c
    assert np.abs(dv_n - (dv - c * data.v)).max() < 1e-12
    assert np.abs(da - c * data.a) < 1e-12
    assert np.abs(dA - c * data.A).max() < 1e-12


def test_normalized_field_soliton_fixed_point(steady):
    # v is an eigenvector of S with eigenvalue |v|^2 / 2
    _, dv, _ = _field(steady, aa.A_NORM_FIXED)
    assert np.abs(dv).max() < 1e-14


def _eigencomponents(data, states):
    """Per cluster of equal eigenvalues of S0: (eigenvalue, r_i = |v_i|^2 / 2 along
    the rows), for the clusters that carry weight of v0."""
    s = aa._s_matrix(data.a, data.A, aa.skt_verdict(data).k)
    vals, vecs = np.linalg.eigh(s)
    out = []
    for lam in np.unique(np.round(vals, 8)):
        block = vecs[:, np.abs(vals - lam) < 1e-8]
        r = 0.5 * np.sum((states[:, 1:] @ block) ** 2, axis=1)
        if r[0] > 1e-28:
            out.append((lam, r))
    return out


def test_eigencomponent_dynamics(steady):
    # under the normalization that freezes (a, A), r_i = |v_i|^2 / 2 obeys
    # r_i' = 2 lambda_i r_i - |v|^2 r_i: the steady soliton's one component
    # stays put, and log(r_1 / r_2) grows at the rate 2 (lambda_1 - lambda_2)
    traj = aa.integrate_reduced_flow(steady, aa.A_NORM_FIXED, 5.0)
    (lam, r), = _eigencomponents(steady, traj.raw.states)
    assert abs(lam - 1.0) < 1e-12 and np.abs(r - 1.0).max() < 1e-12
    vmix = steady.v.copy()
    vmix[0] = 0.4
    mixed = steady.replace(v=vmix)
    traj = aa.integrate_reduced_flow(mixed, aa.A_NORM_FIXED, 5.0)
    (l1, r1), (l2, r2) = _eigencomponents(mixed, traj.raw.states)
    assert_allclose(np.log(r1 / r2) - np.log(r1[0] / r2[0]), 2 * (l1 - l2) * traj.raw.times, atol=1e-12)


def test_s_matrix_bound(rng):
    # the top eigenvalue of S is (k/4 - 1/2) a^2, attained exactly on ker A
    for _ in range(10):
        data = random_skt_almost_abelian(rng, m=6)
        k = aa.skt_verdict(data).k
        s = aa._s_matrix(data.a, data.A, k)
        cap = (k / 4.0 - 0.5) * data.a**2
        vals, vecs = np.linalg.eigh(s)
        assert vals.max() <= cap + 1e-10
        for lam, vec in zip(vals, vecs.T):
            if abs(lam - cap) < 1e-10:
                assert np.linalg.norm(data.A @ vec) < 1e-8
            else:
                assert np.linalg.norm(data.A @ vec) > 1e-8


def test_integrate_blowup(shrink):
    traj = aa.integrate_reduced_flow(shrink, aa.UNNORMALIZED, 1.0)
    assert traj.raw.terminal_event == engine.BLOWUP
    assert abs(traj.raw.blowup.t_est - 0.5) < 1e-9
    d = traj.diagnostics()
    assert d["skt_residual"].max() < 1e-8
    assert d["normality_defect"].max() < 1e-9


def test_integrate_steady_constant(steady):
    traj = aa.integrate_reduced_flow(steady, aa.UNNORMALIZED, 100.0)
    assert traj.raw.terminal_event == engine.HORIZON
    x0 = steady.to_state()
    dev = max(np.linalg.norm(x - x0) for x in traj.raw.states)
    assert dev < 1e-8


def test_integrate_perturbed_sab_case_iii(sab):
    data = sab.replace(v=np.array([0.2, 0.0, 0.0, 0.0]))
    traj = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 200.0)
    d = traj.diagnostics()
    assert d["v_norm"][-1] < 1e-3 * d["v_norm"][0]
    assert 0 < d["a"][-1] < d["a"][0]
    assert aa.classify(data).table_case == "iii"


def test_conserved_ratio_along_flow(sab):
    data = sab.replace(v=np.array([0.2, 0.0, 0.0, 0.0]))
    traj = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 200.0)
    d = traj.diagnostics()
    ratio = d["a"] ** 2 / d["A_norm"] ** 2
    assert np.abs(ratio / ratio[0] - 1.0).max() < 1e-9


def test_r_m_over_a4_conserved():
    steady = get_entry("steady10").data
    vmix = steady.v.copy()
    vmix[0] = 0.3
    data = steady.replace(v=vmix)
    k = aa.skt_verdict(data).k
    s = aa._s_matrix(data.a, data.A, k)
    vals, vecs = np.linalg.eigh(s)
    top = vecs[:, np.abs(vals - vals.max()) < 1e-10]
    traj = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 50.0)
    vals_t = []
    for x in traj.raw.states:
        decoded = data.from_state(x)
        a, v = decoded.a, decoded.v
        r_m = 0.5 * float(np.linalg.norm(top.T @ v) ** 2)
        vals_t.append(r_m / a**4)
    vals_t = np.array(vals_t)
    assert np.abs(vals_t / vals_t[0] - 1.0).max() < 1e-7


def _assert_soliton_derivation(data, cert, soliton_fit):
    """The soliton's D = P - alpha Id - U is a J-commuting derivation with
    sym(D) = P - alpha Id, and the dense least-squares fit over Der(mu) finds
    the same alpha."""
    scale2 = max(1.0, abs(data.a), np.linalg.norm(data.A), np.linalg.norm(data.v)) ** 2
    j, mu, p = aa.hermitian_frame(data).J, aa.build_bracket(data), aa.p_matrix(data)
    der = p - cert.alpha * np.eye(data.dim) - aa.gauge_matrix(data)
    assert np.abs(der @ j - j @ der).max() <= 1e-15 * scale2
    assert_allclose(0.5 * (der + der.T), p - cert.alpha * np.eye(data.dim), rtol=0, atol=1e-15 * scale2)
    if (norm := bracket_norm(mu)) > 0.0:
        assert bracket_norm(infinitesimal_action(der, mu)) / norm <= 1e-13 * scale2
    alpha, residual = soliton_fit(p, mu, j)
    assert abs(alpha - cert.alpha) <= 1e-12 and residual <= 1e-12


def test_soliton_certificates(sab, shrink, steady, rng, soliton_fit):
    c1 = aa.soliton_certificate(sab)
    assert c1.kind is aa.SolitonKind.EXPANDING and abs(c1.alpha + 0.25) < 1e-14
    c2 = aa.soliton_certificate(shrink)
    assert c2.kind is aa.SolitonKind.SHRINKING and abs(c2.alpha - 1.0) < 1e-14
    c3 = aa.soliton_certificate(steady)
    assert c3.kind is aa.SolitonKind.STEADY and abs(c3.alpha) < 1e-14
    assert abs(c3.eigen_lambda - 1.0) < 1e-12
    for data, cert in ((sab, c1), (shrink, c2), (steady, c3)):
        assert cert.residual < 1e-10
        _assert_soliton_derivation(data, cert, soliton_fit)
    # generic SKT data with v not an S-eigenvector is no soliton
    data = random_skt_almost_abelian(rng, m=6)
    while np.linalg.norm(data.v) < 0.2:
        data = random_skt_almost_abelian(rng, m=6)
    cert = aa.soliton_certificate(data)
    assert cert.kind is aa.SolitonKind.NONE


def test_soliton_derivation_closed_form_on_random_solitons(rng, soliton_fit):
    # v = 0, and v = sqrt(2 s) q for each eigenpair (s > 0, q) of S: |v|^2 / 2
    # is then an eigenvalue of S with eigenvector v, and w = -A^t v / 4 is
    # mostly nonzero, which the catalog solitons never have
    with_w = 0
    for m in range(2, 17, 2):
        for _ in range(3):
            data = random_skt_almost_abelian(rng, m=m, allow_zero_a=True)
            s, q = np.linalg.eigh(aa._s_matrix(data.a, data.A, aa.skt_verdict(data).k))
            for v in [np.zeros(m)] + [np.sqrt(2.0 * s[i]) * q[:, i] for i in np.flatnonzero(s > 1e-8)]:
                soliton = data.replace(v=v)
                cert = aa.soliton_certificate(soliton)
                assert cert.kind is not aa.SolitonKind.NONE
                _assert_soliton_derivation(soliton, cert, soliton_fit)
                with_w += bool(np.linalg.norm(aa.p_components(soliton).w) > 1e-8)
    assert with_w >= 10


def _dense_derivation_residual(data):
    """|pi(D) mu| / |mu| of D = P - c Id - U by the dense action on the built bracket."""
    mu = aa.build_bracket(data)
    der = aa.p_matrix(data) - aa.p_components(data).c * np.eye(data.dim) - aa.gauge_matrix(data)
    return bracket_norm(infinitesimal_action(der, mu)) / bracket_norm(mu)


def test_derivation_residual_closed_form_on_generic_data(rng):
    # [D_h, ad e_(2n)] = -[[0, 0], [S v - |v|^2 v / 2, (a/4)[A, A^t]]] holds for
    # any integrable (a, v, A), pluriclosed or not
    for m in range(2, 13, 2):
        for _ in range(5):
            data = random_generic_almost_abelian(rng, m=m)
            s = aa._s_matrix(data.a, data.A, aa.skt_multiplicity_k(data.a, data.A))
            u = s @ data.v - 0.5 * (data.v @ data.v) * data.v
            got = aa._derivation_residual(data, float(np.linalg.norm(u)))
            assert_allclose(got, _dense_derivation_residual(data), rtol=1e-13)
    zero = aa.AlmostAbelianData(0.0, np.zeros(2), np.zeros((2, 2)), HermitianFrame.antidiagonal(2).J)
    assert aa._derivation_residual(zero, 0.0) == 0.0


def test_soliton_residual_is_the_dense_action_where_it_dominates(rng):
    # v = 0 solitons whose normal A moves by 1e-10 |A| in a J-commuting
    # direction stay pluriclosed; the eigen term is 0 and the action term,
    # (|a|/4) |[A, A^t]| / |mu|, is far above roundoff
    for m in range(4, 17, 2):
        for _ in range(3):
            data = random_skt_almost_abelian(rng, m=m)
            x = rng.standard_normal((m, m))
            x = 0.5 * (x - data.J1 @ x @ data.J1)
            data = data.replace(v=np.zeros(m), A=data.A + 1e-10 * np.linalg.norm(data.A) / np.linalg.norm(x) * x)
            cert = aa.soliton_certificate(data)
            assert cert.kind is not aa.SolitonKind.NONE and cert.residual > 1e-14
            assert_allclose(cert.residual, _dense_derivation_residual(data), rtol=1e-4)


def test_soliton_alpha_sign_matches_kind(rng):
    sign = {
        aa.SolitonKind.EXPANDING: -1,
        aa.SolitonKind.STEADY: 0,
        aa.SolitonKind.SHRINKING: 1,
    }
    for name in ("s_ab(1, pi/2)", "shrink10", "steady10"):
        cert = aa.soliton_certificate(get_entry(name).data)
        want = sign[cert.kind]
        assert np.sign(round(cert.alpha, 12)) == want


@pytest.mark.parametrize("name", ["shrink10", "steady10", "s_ab(1, pi/2)"])
def test_verdicts_do_not_depend_on_the_data_scale(name):
    # alpha is quadratic and T inverse quadratic in the data; with a floor of 1
    # on the scale, shrink10 at 1e-9 read KAHLER_RICCI_FLAT and at 1e-10 nilpotent
    def verdicts(s):
        data = get_entry(name).data
        data = data.replace(a=s * data.a, v=s * data.v, A=s * data.A)
        cert, rep = aa.soliton_certificate(data), aa.classify(data)
        return (cert.kind, rep.table_case, rep.unimodular), cert.alpha / s**2, rep.extinction_time * s**2

    labels, alpha, t = verdicts(1.0)
    for s in (1e3, 1e-3, 1e-6, 1e-9, 1e-12):
        got = verdicts(s)
        assert got[0] == labels, s
        assert_allclose(got[1:], (alpha, t), rtol=1e-12, atol=1e-12, err_msg=str(s))


def test_classify_cases(shrink, steady):
    j2 = HermitianFrame.pairwise(2).J
    skew = aa.AlmostAbelianData(0.0, np.array([1.0, 0.0]), 2.0 * j2, j2)
    rep = aa.classify(skew)
    assert rep.table_case == "i" and rep.unimodular and rep.predicted_T == "INFINITE"
    assert rep.soliton_type_at_limit is aa.SolitonKind.KAHLER_RICCI_FLAT
    assert aa.classify(shrink).table_case == "vi"
    assert aa.classify(shrink).predicted_T == "FINITE"
    assert aa.classify(steady).table_case == "v"
    assert aa.classify(steady).predicted_limit == "NONZERO"


def test_classify_invariant_under_scaling_and_unitary(rng, shrink, steady):
    # shrink10, steady10 and the (v)/(vi) representatives have an exact ker A,
    # which the split of S0 must find whatever the scale and J-unitary frame
    from pluriflow.verification import table_one_representatives

    reps = table_one_representatives()
    for data in (random_skt_almost_abelian(rng, m=6), shrink, steady, reps["v"], reps["vi"]):
        rep = aa.classify(data)
        base, T = rep.table_case, rep.extinction_time
        for s in (1e-3, 1.0, 1e3):
            for _ in range(4):
                q = random_unitary_commuting(rng, data.m)
                moved = aa.AlmostAbelianData(s * data.a, s * q @ data.v, s * q @ data.A @ q.T, data.J1)
                moved_rep = aa.classify(moved)
                assert moved_rep.table_case == base, s
                assert_allclose(moved_rep.extinction_time * s * s, T, rtol=1e-12, err_msg=str(s))


def test_ker_a_weight_is_read_at_the_data_scale(shrink):
    # shrink10 has v = 0; a v on ker A within 1e-8 |(a, A)| is roundoff and
    # keeps case (vi), T = 1/2 (against |v| alone, 1e-17 read (v), T = inf)
    for s in (1e-3, 1.0, 1e3):
        for tail, case in ((1e-17, "vi"), (1e-12, "vi"), (1e-9, "vi"), (1e-7, "v"), (1e-3, "v")):
            v = np.zeros(shrink.m)
            v[-1] = s * tail
            data = shrink.replace(a=s * shrink.a, v=v, A=s * shrink.A)
            rep, flow = aa.classify(data), aa.ReducedFlow(data)
            assert rep.table_case == case and flow.top_weight == (case == "v"), (s, tail)
            assert_allclose(rep.extinction_time * s * s, 0.5 if case == "vi" else np.inf, rtol=1e-12, err_msg=str((s, tail)))


def test_classify_rejects_nilpotent():
    with pytest.raises(ValueError):
        aa.classify(aa.AlmostAbelianData(0.0, np.array([1.0, 0.0]), np.zeros((2, 2)), HermitianFrame.pairwise(2).J))


def _self_similar_deviation(data, traj):
    """Max relative deviation of the rows from (1 - 2 alpha t)^(-1/2) x0, alpha = c."""
    alpha = aa.p_components(data).c
    x0 = data.to_state()
    sigma = (1.0 - 2.0 * alpha * traj.raw.times) ** -0.5
    dev = np.linalg.norm(traj.raw.states - sigma[:, None] * x0, axis=1) / (sigma * np.linalg.norm(x0))
    return float(dev.max())


def test_self_similar_scaling(sab, shrink, steady):
    traj = aa.integrate_reduced_flow(shrink, aa.UNNORMALIZED, 0.45)
    assert _self_similar_deviation(shrink, traj) < 1e-6
    traj = aa.integrate_reduced_flow(steady, aa.UNNORMALIZED, 100.0)
    assert _self_similar_deviation(steady, traj) < 1e-9
    traj = aa.integrate_reduced_flow(sab, aa.UNNORMALIZED, 100.0)
    assert _self_similar_deviation(sab, traj) < 1e-6


def test_json_round_trip(steady):
    back = aa.AlmostAbelianData.from_json_dict(steady.to_json_dict())
    assert back.a == steady.a
    assert_allclose(back.A, steady.A)
    assert_allclose(back.v, steady.v)
    data = aa.AlmostAbelianData.from_json_dict({"a": 1.0, "v": [0.0] * 4, "A": s_ab_data(1.0, 2.0).A.tolist(), "J1": "standard"})
    assert data.dim == 6


def test_data_arrays_are_read_only_copies():
    v, A, J1 = np.array([0.3, 0.0]), (np.pi / 2) * HermitianFrame.pairwise(2).J, HermitianFrame.pairwise(2).J.copy()
    data = aa.AlmostAbelianData(1.0, v, A, J1)
    for arr in (data.v, data.A, data.J1):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
    v[0], A[0, 1], J1[0, 1] = 5.0, 3.0, 2.0
    assert data.v[0] == 0.3 and data.A[0, 1] == -np.pi / 2 and data.J1[0, 1] == -1.0
    aa.classify(data)
    for other in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        assert all(not arr.flags.writeable for arr in (other.v, other.A, other.J1))
        assert "_skt_k" not in vars(other) and other.v[0] == 0.3
    # every flow built from the data shares the arrays of its one split of S0
    one, other = aa.ReducedFlow(data), aa.ReducedFlow(data, aa.A_NORM_FIXED)
    for name in ("_s0", "sigma", "_q", "_beta", "_b2"):
        assert getattr(one, name) is getattr(other, name) and not getattr(one, name).flags.writeable, name


def test_each_invariant_of_the_data_is_derived_once(monkeypatch, tmp_path, capsys):
    # (is_skt, k), the split of S0 and the constant diagnostic columns are read
    # off the data object, which derives each of them once
    from collections import Counter

    from pluriflow import cli
    from pluriflow.verification import table_one_representatives

    calls = Counter()

    def spy(name, fn):
        return lambda *args, **kw: calls.update([name]) or fn(*args, **kw)

    monkeypatch.setattr(aa, "skt_multiplicity_k", spy("k", aa.skt_multiplicity_k))
    monkeypatch.setattr(aa, "skt_closure_residual", spy("closure", aa.skt_closure_residual))
    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
    once = {"k": 1, "closure": 1, "eigh": 1}
    for case, data in table_one_representatives().items():
        calls.clear()
        aa.classify(data)
        for mode in (aa.UNNORMALIZED, aa.A_NORM_FIXED):
            aa.integrate_reduced_flow(data, mode, 10.0).diagnostics()
        aa.soliton_certificate(data)
        aa.skt_verdict(data)
        aa.p_components(data)
        assert calls == once, (case, calls)
    # check on an SKT file with k = 3: classify builds its one flow
    path = tmp_path / "vi.json"
    path.write_text(json.dumps(_near_kernel_data(1e-3).to_json_dict()))
    calls.clear()
    assert cli.main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["classification"]["case"] == "vi"
    assert calls == once, calls


def test_reduced_flow_requires_skt(rng):
    data = random_generic_almost_abelian(rng, m=4)
    with pytest.raises(ValueError):
        aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 1.0)


def test_reduced_flow_requires_a_finite_positive_horizon(steady):
    for horizon in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon"):
            aa.integrate_reduced_flow(steady, aa.UNNORMALIZED, horizon)


def test_catalog_parameters_are_arithmetic_only():
    assert get_entry("s_ab(pi/2, -1)").data.a == np.pi / 2
    assert get_entry("s_ab((1 + 1) / 4, -(2))").data.a == 0.5
    for name in ("s_ab(2**3, 1)", "s_ab(ip, 1)"):
        with pytest.raises(ValueError):
            get_entry(name)


def _diagnostics_oracle(traj):
    """ReducedTrajectory.diagnostics as a loop over decoded rows, each formula on one matrix."""
    from pluriflow.hermitian import skt_closure_residual
    from pluriflow.normality import normality_defect

    rows = []
    for t, x in zip(traj.raw.times, traj.raw.states):
        d = traj.data0.from_state(x)
        a, v, A = d.a, d.v, d.A
        scale2 = max(a * a + float(np.sum(A * A)), 1e-300)
        rows.append([
            float(t), a, float(np.linalg.norm(v)), float(np.linalg.norm(A)),
            aa._c_scalar(traj.k, a, float(v @ v)),
            skt_closure_residual(a, A) / scale2, normality_defect(A) / scale2,
        ])
    names = ["t", "a", "v_norm", "A_norm", "c", "skt_residual", "normality_defect"]
    return dict(zip(names, np.array(rows).T))


def _assert_diagnostics_match_oracle(traj):
    # t, a and v_norm take the oracle's operations; the other columns take
    # (a, A) = lam (a0, A0) out of their formulas, which moves the last bits
    got, want = traj.diagnostics(), _diagnostics_oracle(traj)
    assert list(got) == list(want)
    for name in ("t", "a", "v_norm"):
        assert np.array_equal(got[name], want[name]), name
    for name in ("A_norm", "c"):
        assert_allclose(got[name], want[name], rtol=1e-14, atol=1e-14, err_msg=name)
    for name in ("skt_residual", "normality_defect"):
        assert_allclose(got[name], want[name], rtol=0.0, atol=1e-15, err_msg=name)


def test_diagnostics_match_row_loop_on_blowup(shrink):
    traj = aa.integrate_reduced_flow(shrink, aa.UNNORMALIZED, 2.0)
    assert traj.raw.terminal_event == engine.BLOWUP
    assert len(traj.times) == len(aa._TAU_GRID)  # a run up to |x| = 1e6, one row per grid point
    _assert_diagnostics_match_oracle(traj)


def test_diagnostics_match_row_loop_normalized(sab):
    data = sab.replace(v=np.array([0.3, -0.2, 0.1, 0.4]))
    traj = aa.integrate_reduced_flow(data, aa.A_NORM_FIXED, 50.0)
    _assert_diagnostics_match_oracle(traj)


def test_diagnostics_match_row_loop_m8(rng):
    data = random_skt_almost_abelian(rng, m=8)
    traj = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 20.0)
    _assert_diagnostics_match_oracle(traj)


def test_diagnostics_one_row(shrink):
    # at this r, lam = r / r0 has lam**2 != lam * lam; the c column takes the
    # field's lam * lam
    x = shrink.to_state()
    x[0] = 0.9827323782383632 * x[0]
    lam = x[0] / np.sqrt(shrink.scale_sq)
    assert lam**2 != lam * lam
    raw = engine.Trajectory(times=np.array([0.0]), states=x[None, :], terminal_event=engine.HORIZON)
    traj = aa.ReducedTrajectory(data0=shrink, k=aa.skt_verdict(shrink).k, raw=raw)
    cols = traj.diagnostics()
    assert all(col.shape == (1,) for col in cols.values())
    assert cols["c"][0] == lam * lam * aa._s_top(traj.k, shrink.a) - 0.5 * float(x[1:] @ x[1:])
    _assert_diagnostics_match_oracle(traj)


# --- oracles of the exact solution -------------------------------------------


def _near_kernel_data(theta, v7=0.5):
    """a = 2 and A = diag(-1 x6, R(theta)), R(theta) the rotation generator on
    the last plane, so k = 3 and c0 = 1; v0 = 0.2 e1 + v7 e7.  The pair
    +-i theta of A lies theta^2 / 2 below c0 in S0, so theta <= 1e-5 counts
    as ker A (case v) and theta >= 1e-3 does not (case vi).  lam tends to
    about sqrt(2 c0) / v7, and the fast modes of the field scale with lam^2."""
    v0 = np.zeros(8)
    v0[0], v0[6] = 0.2, v7
    A = np.diag([-1.0] * 6 + [0.0, 0.0])
    A[6:, 6:] = [[0.0, -theta], [theta, 0.0]]
    return aa.AlmostAbelianData(2.0, v0, A, HermitianFrame.pairwise(8).J)


def _near_kernel_inputs():
    """(theta, data) for the theta family of _near_kernel_data, v0 = 0.2 e1 +
    0.5 e7: the dense field, which has no Jacobian, still integrates it
    explicitly."""
    for theta in (1e-1, 1e-3, 1e-5, 1e-7, 1e-12):
        yield theta, _near_kernel_data(theta)


def _oracle_inputs(rng):
    from pluriflow.verification import table_one_representatives

    yield from table_one_representatives().values()
    yield from (data for _, data in _near_kernel_inputs())
    # little weight on the kernel plane: lam^2 tends to about 200, the field
    # turns stiff, and the oracle's run switches to the Radau step
    yield _near_kernel_data(1e-5, v7=0.1)
    for m in (2, 4, 8):
        for _ in range(2):
            yield random_skt_almost_abelian(rng, m=m, allow_zero_a=True)
    # and one random item that dies
    data = random_skt_almost_abelian(rng, m=8)
    while aa.classify(data).predicted_T != "FINITE":
        data = random_skt_almost_abelian(rng, m=8)
    yield data


def _assert_rows_match_oracle(data, mode, horizon):
    """Integrate the field with the engine at the closed form's row times:
    each row within 1e-9 max(1, T / (T - t)) relative (T = inf when
    normalized), the extinction time within 1e-9 T of the engine's T_est."""
    cfg = engine.IntegratorConfig()
    exact = aa.integrate_reduced_flow(data, mode, horizon).raw
    flow = aa.ReducedFlow(data, mode)
    oracle = engine.integrate(flow.field, data.to_state(), horizon, replace(cfg, sample_times=exact.times),
                              jacobian=flow.jacobian)
    assert oracle.terminal_event == exact.terminal_event
    if mode == aa.A_NORM_FIXED:
        assert np.all(exact.states[:, 0] == exact.states[0, 0])  # (a, A) frozen: lam = 1 exactly
    T = flow.T if mode == aa.UNNORMALIZED else np.inf
    if exact.terminal_event == engine.BLOWUP:
        assert abs(exact.blowup.t_est - oracle.blowup.t_est) <= 1e-9 * T
    rows = dict(zip(exact.times, exact.states))
    compared = 0
    for t, x in zip(oracle.times, oracle.states):
        if t in rows:
            bound = 1e-9 * (max(1.0, T / (T - t)) if T < np.inf else 1.0) * np.linalg.norm(x) + 10 * cfg.abs_tol
            assert np.linalg.norm(rows[t] - x) <= bound, (t, np.linalg.norm(rows[t] - x), bound)
            compared += 1
    assert compared >= len(exact.times) - 1  # all but a BLOWUP row past the oracle's last step


def test_normalized_flow_matches_closed_form(rng):
    for data in _oracle_inputs(rng):
        _assert_rows_match_oracle(data, aa.A_NORM_FIXED, 120.0)


def test_exact_state_matches_engine_oracle(rng):
    for data in _oracle_inputs(rng):
        _assert_rows_match_oracle(data, aa.UNNORMALIZED, 1e3)


def test_reduced_jacobian_matches_central_differences(rng):
    from pluriflow.verification import table_one_representatives

    datas = list(table_one_representatives().values())
    datas += [random_skt_almost_abelian(rng, m=m, allow_zero_a=True) for m in range(2, 9, 2) for _ in range(3)]
    datas.append(_near_kernel_data(1e-5, v7=0.1))
    for data in datas:
        r0, h = data.to_state()[0], 1e-5
        for mode in (aa.UNNORMALIZED, aa.A_NORM_FIXED):
            flow = aa.ReducedFlow(data, mode)
            for lam in (1.0, 0.37, 2.9):
                x = np.concatenate([[lam * r0], rng.standard_normal(data.m)])
                jac = flow.jacobian(x)
                assert jac.shape == (data.m + 1, data.m + 1)
                fd = np.array([(flow.field(x + h * u) - flow.field(x - h * u)) / (2 * h) for u in np.eye(x.size)]).T
                # the field is cubic: the central quotient is off by h^2 times its third derivative
                assert np.abs(jac - fd).max() <= 1e-7 * np.abs(jac).max(), (mode, lam)


def _dense_field(data0, mode):
    """The reduced field on the dense state (a, v, A), m^2 + m + 1 long: the
    flow's old form, kept as the oracle of the state (r, v)."""
    k = aa.skt_verdict(data0).k
    m = data0.m
    s0 = aa._s_matrix(data0.a, data0.A, k)

    def field(x):
        a, v, A = float(x[0]), x[1 : 1 + m], x[1 + m :].reshape(m, m)
        vv = float(v @ v)
        if mode == aa.A_NORM_FIXED:
            out = np.zeros_like(x)
            out[1 : 1 + m] = s0 @ v - 0.5 * vv * v
            return out
        c = aa._c_scalar(k, a, vv)
        out = c * x
        out[1 : 1 + m] = c * v + aa._s_matrix(a, A, k) @ v - 0.5 * vv * v
        return out

    return field


def _dense_state(data):
    return np.concatenate([[data.a], data.v, data.A.ravel()])


def _dense_oracle_inputs(rng):
    from pluriflow.verification import table_one_representatives

    yield from table_one_representatives().values()
    yield from (data for _, data in _near_kernel_inputs())
    for m in (2, 4, 8):
        for _ in range(2):
            yield random_skt_almost_abelian(rng, m=m, allow_zero_a=True)


def test_natural_field_matches_dense_field(rng):
    # at (a, A) = lam (a0, A0), the field (r', v') decodes to the dense (a', v', A')
    for data in _dense_oracle_inputs(rng):
        r0 = data.to_state()[0]
        for mode, lams in ((aa.UNNORMALIZED, (1.0, 0.37, 2.9)), (aa.A_NORM_FIXED, (1.0,))):
            flow, dense = aa.ReducedFlow(data, mode), _dense_field(data, mode)
            for lam in lams:
                v = rng.standard_normal(data.m)
                f = flow.field(np.concatenate([[lam * r0], v]))
                lam_dot = f[0] / r0
                got = np.concatenate([[lam_dot * data.a], f[1:], (lam_dot * data.A).ravel()])
                want = dense(_dense_state(data.replace(a=lam * data.a, v=v, A=lam * data.A)))
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (mode, lam)


def test_natural_flow_matches_dense_flow(rng):
    for data in _dense_oracle_inputs(rng):
        for mode, horizon in ((aa.UNNORMALIZED, 1e3), (aa.A_NORM_FIXED, 120.0)):
            nat = aa.integrate_reduced_flow(data, mode, horizon).raw
            dense = engine.integrate(_dense_field(data, mode), _dense_state(data), horizon)
            assert nat.terminal_event == dense.terminal_event
            if nat.blowup is not None:
                assert abs(nat.blowup.t_est - dense.blowup.t_est) <= 1e-9 * abs(dense.blowup.t_est)
            if nat.terminal_event == engine.HORIZON:
                got, want = _dense_state(data.from_state(nat.final_state)), dense.final_state
                assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_extinction_time_matches_classification(shrink, steady, rng):
    from pluriflow.verification import table_one_representatives

    assert aa.classify(shrink).extinction_time == 0.5
    assert aa.classify(steady).extinction_time == np.inf
    for case, data in table_one_representatives().items():
        T = aa.classify(data).extinction_time
        assert abs(T - 13 / 24) <= 1e-15 if case == "vi" else T == np.inf, (case, T)
    for m in (2, 4, 8):
        for _ in range(30):
            data = random_skt_almost_abelian(rng, m=m, allow_zero_a=True)
            rep = aa.classify(data)
            assert (rep.extinction_time < np.inf) == (rep.predicted_T == "FINITE")


def test_classified_extinction_time_is_the_reduced_flows(rng):
    # for k <= 2 classify builds no flow and sets T = inf, as the flow's c0 <= 0 does
    from pluriflow.verification import table_one_representatives

    inputs = list(table_one_representatives().values())
    inputs += [random_skt_almost_abelian(rng, m=m, allow_zero_a=True) for m in (2, 4, 8) for _ in range(30)]
    for data in inputs:
        assert aa.classify(data).extinction_time == aa.ReducedFlow(data).T


def test_limit_labels_follow_the_classification():
    from pluriflow.verification import table_one_representatives

    want = {"i": "NONZERO", "ii": "ZERO", "iii": "ZERO", "iv": "NONZERO", "v": "NONZERO", "vi": "BLOWUP"}
    for case, data in table_one_representatives().items():
        flow = aa.ReducedFlow(data)
        assert flow.limit == want[case], case
        assert (flow.limit == "BLOWUP") == (aa.classify(data).predicted_limit == "BLOWUP")
    # a = 0 with v0 on ker A: D = 1 + |v0|^2 tau and t = tau + |v0|^2 tau^2 / 2,
    # so lam = D^(-1/2) = (1 + 2 |v0|^2 t)^(-1/4) goes to 0
    j2 = HermitianFrame.pairwise(2).J
    data = aa.AlmostAbelianData(0.0, np.array([0.0, 0.0, 0.3, 0.0]), np.kron(np.diag([1.0, 0.0]), j2), HermitianFrame.pairwise(4).J)
    assert aa.ReducedFlow(data).limit == "ZERO"
    x = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 1e4).raw.final_state
    assert abs(x[0] / data.to_state()[0] / (1.0 + 2 * 0.09 * 1e4) ** -0.25 - 1.0) < 1e-12


def test_near_kernel_verdicts_agree_and_keep_the_input():
    # one split of S0 decides ker A for classify, its extinction_time, limit and the
    # BLOWUP event, and v0's weight on a near-kernel plane is kept, not dropped
    for theta, data in _near_kernel_inputs():
        rep, flow = aa.classify(data), aa.ReducedFlow(data)
        T = rep.extinction_time
        assert rep.table_case == ("v" if theta <= 1e-5 else "vi"), theta
        finite = rep.predicted_T == "FINITE"
        assert finite == (T < np.inf) == (flow.limit == "BLOWUP") == (rep.predicted_limit == "BLOWUP"), theta
        event = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 2.0 * T if finite else 1e4).raw.terminal_event
        assert (event == engine.BLOWUP) == finite, theta
        x0 = data.to_state()
        for mode in (aa.UNNORMALIZED, aa.A_NORM_FIXED):
            row0 = aa.integrate_reduced_flow(data, mode, 1.0).raw.states[0]
            assert np.linalg.norm(row0 - x0) <= 1e-15 * np.linalg.norm(x0), (theta, mode)


def test_sampled_rows_near_extinction(shrink):
    # shrink10 is a shrinking soliton, x(t) = (1 - 2t)^(-1/2) x0 with T = 1/2;
    # its rows up to 1e-10 before T keep full accuracy, since tau comes from
    # T - t(tau) as the extinction time of the state at tau, not from T - t
    horizon = 0.5 - 1e-10
    samples = np.concatenate([[0.0, 0.1, 0.25], 0.5 - np.logspace(-2, -10, 9)])
    traj = aa.integrate_reduced_flow(shrink, aa.UNNORMALIZED, horizon, samples)
    assert traj.raw.terminal_event == engine.HORIZON
    assert np.array_equal(traj.times, samples)
    want = (1.0 - 2.0 * samples)[:, None] ** -0.5 * shrink.to_state()
    err = np.linalg.norm(traj.raw.states - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() < 1e-12, err


# --- the horizon solve tau(t) --------------------------------------------------


def _horizon_inputs(rng):
    """The Table 1 representatives (c0 = 0 in cases (i) and (iv), the c0 > 0
    top-weight case (v)), random SKT data, and each of them with v0 = 0."""
    from pluriflow.verification import table_one_representatives

    datas = list(table_one_representatives().values())
    datas += [random_skt_almost_abelian(rng, m=m, allow_zero_a=True) for m in (2, 4, 8) for _ in range(10)]
    return datas + [data.replace(v=np.zeros(data.m)) for data in datas]


def _horizon_times(flow):
    t = np.logspace(-3, 3, 25)
    return t[t < flow.T]


def test_horizon_bracket_starts_above_the_root(rng):
    # g(tau0) >= 0 wherever 2 c0 t < 1, as D >= 1; at v0 = 0 tau0 is the
    # root, which the solve resolves to 4 eps in g
    eps = np.finfo(float).eps
    cases = set()
    for data in _horizon_inputs(rng):
        flow = aa.ReducedFlow(data)
        cases.add((flow.c > 0, flow.c == 0, flow.top_weight, not data.v.any()))
        t = _horizon_times(flow)
        t = t[2 * flow.c * t < 1]
        for late in (False, True):
            s = t[(t >= 0.5 * flow.T) == late]
            if not s.size:
                continue
            val, slope = flow._horizon_g(s, late)(flow._tau0(s))
            assert np.all(val >= (-4 * eps if not data.v.any() else 0.0)), (flow.c, late, val.min())
            assert np.all(slope > 0)
    assert {(False, True, False, False), (True, False, True, False), (True, False, False, True)} <= cases


def _evaluations(flow, t):
    """tau_at(t) for one time t, and the evaluations of g it took."""
    calls, g = [], flow._horizon_g(np.array([t]), t >= 0.5 * flow.T)
    flow._horizon_g = lambda t, late: lambda tau: calls.append(tau) or g(tau)
    try:
        return flow.tau_at(np.array([t]))[0], len(calls)
    finally:
        del flow._horizon_g


def test_horizon_solve_inverts_times(rng):
    # Newton stops once g is 0 within 4 eps: where tau is resolved more finely
    # than g (T finite and t << T), it used to wander to its 200-step cap
    eps = np.finfo(float).eps
    for data in _horizon_inputs(rng):
        flow = aa.ReducedFlow(data)
        t = _horizon_times(flow)
        tau = flow.tau_at(t)
        if flow.T == np.inf:
            assert np.all(np.abs(flow.times(tau) - t) <= 8 * eps * t), flow.c
        else:  # the solve matches T - t(tau), the extinction time of the state at tau
            assert np.all(np.abs(flow.times(tau) - t) <= 8 * eps * np.maximum(t, flow.T - t)), flow.c
        for s in t:
            assert _evaluations(flow, s)[1] <= 20, (flow.c, flow.T, s)


def test_horizon_solve_at_v0_zero_takes_one_evaluation(rng):
    # D_inf = 1, so Newton starts at the root itself; from _tau0(t), 4 eps
    # above it, 272 of these 1698 solves took a second evaluation
    for data in _horizon_inputs(rng):
        flow = aa.ReducedFlow(data.replace(v=np.zeros(data.m)))
        for t in _horizon_times(flow):
            assert _evaluations(flow, t)[1] == 1, (flow.c, t)


def test_horizon_solve_keeps_relative_accuracy_below_half_the_extinction_time(rng):
    # below T / 2 the solve runs on log(t(tau) / t), whose root t(tau) = t is
    # resolved to eps t; on log((T - t) / (T - t(tau))) the error was eps (T - t)
    eps = np.finfo(float).eps
    datas = _horizon_inputs(rng) + [random_skt_almost_abelian(rng, m=8, allow_zero_a=True) for _ in range(60)]
    finite = 0
    for data in datas:
        flow = aa.ReducedFlow(data)
        if flow.T == np.inf:
            continue
        finite += 1
        t = np.logspace(-3, np.log10(0.5 * flow.T), 30)[:-1]
        err = np.abs(flow.times(flow.tau_at(t)) - t)
        assert np.all(err <= 8 * eps * t), (flow.T, (err / (eps * t)).max())
    assert finite >= 10


def test_horizon_solve_takes_fewer_evaluations_than_steps_in_tau(rng):
    # Newton steps in tau alone took 3.42 evaluations per solve of tau(t) here
    # on average (1718 solves), at most 17, and 9.63 per blow-up root on
    # log |x| (19 solves), at most 15; steps in log tau alone reach the c0 = 0
    # roots far below tau0 = t, but took 12.6 per blow-up root, at most 17.
    # Both steps from tau0 took 3.00 per solve of tau(t), at most 14: the
    # asymptotic start and the stop after a step of 1e-9 take fewer
    counts, blowups = [], []
    datas = _horizon_inputs(rng)
    for data in datas:
        flow = aa.ReducedFlow(data)
        counts += [_evaluations(flow, t)[1] for t in _horizon_times(flow)]
    for data in datas + [random_skt_almost_abelian(rng, m=8, allow_zero_a=True) for _ in range(100)]:
        flow = aa.ReducedFlow(data)
        if flow.T < np.inf:
            calls = []
            aa._root(lambda tau: calls.append(tau) or flow._log_norm(tau), np.zeros(1))
            blowups.append(len(calls))
    assert len(counts) == 1718 and np.mean(counts) < 2.6 and max(counts) <= 13, (np.mean(counts), max(counts))
    assert len(blowups) == 19 and np.mean(blowups) < 9.5 and max(blowups) <= 15, blowups


def test_horizon_solve_on_benchmark_draws_starts_at_the_asymptotic_root(rng):
    # the draws of the benchmark's reduced_flow items, at its horizon t = 1e3:
    # Newton from _tau0(t) took 5.10 per solve here on average, at most 7
    eps = np.finfo(float).eps
    counts = []
    for m in (2, 4, 8):
        for _ in range(40):
            flow = aa.ReducedFlow(random_skt_almost_abelian(rng, m=m, allow_zero_a=True))
            if flow.T > 1e3:
                tau, n = _evaluations(flow, 1e3)
                counts.append(n)
                assert abs(flow.times(np.array([tau]))[0] - 1e3) <= 8 * eps * 1e3, (m, flow.c)
    assert len(counts) == 115 and np.mean(counts) <= 3.5, (len(counts), np.mean(counts))


def test_blowup_solve_starts_its_bracket_at_the_asymptote(monkeypatch):
    # log |x| tends to a line of slope c - m: doubling the bracket from tau = 1
    # took up to 29 evaluations of it here (mean 11.9), against at most 7
    # (mean 5.0) from where that line reaches the blow-up norm
    calls, log_norm = [], aa.ReducedFlow._log_norm
    monkeypatch.setattr(aa.ReducedFlow, "_log_norm", lambda self, tau: calls.append(tau) or log_norm(self, tau))
    rng = np.random.default_rng(0)
    counts = []
    for _ in range(200):
        data = random_skt_almost_abelian(rng, m=8, allow_zero_a=True)
        if aa.ReducedFlow(data).T < np.inf:
            calls.clear()
            aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 1e3)
            counts.append(len(calls))
    assert len(counts) == 29 and max(counts) <= 8 and np.mean(counts) < 6, counts


def _exp_dd_series_oracle(x, y):
    """_exp_dd with its powers as p ** n, a libm pow per entry."""
    hi = np.maximum(0.0, np.maximum(x, y))
    a, b, c = -hi, x - hi, y - hi
    q = np.minimum(np.minimum(a, b), c)
    p = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    qf = np.minimum(q, -1.0)
    out = (aa._phi1(p) - np.exp(p) * aa._phi1(qf - p)) / -qf
    near, n = q >= -1.0, np.arange(aa._DD_TERMS.shape[0])
    out[near] = ((p[near][:, None] ** n @ aa._DD_TERMS) * q[near][:, None] ** n).sum(axis=1)
    return np.exp(hi) * out


def test_exp_dd_matches_the_pow_series(rng):
    # running products round z^n n - 1 times, where pow rounds once; the sum
    # stays within 2 ulp of its value on both branches (q >= -1 and below)
    grid = np.concatenate([-np.logspace(-12, 2.8, 40), [0.0], np.logspace(-12, 2.8, 40), rng.uniform(-4.0, 4.0, 60)])
    x, y = (a.ravel() for a in np.meshgrid(grid, grid))
    want = _exp_dd_series_oracle(x, y)
    got = aa._exp_dd(x, y)
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want))), np.max(np.abs(got - want) / np.spacing(np.abs(want)))
    q = np.minimum(np.minimum(0.0, x), y) - np.maximum(0.0, np.maximum(x, y))
    assert (q >= -1.0).any() and (q < -1.0).any()
    assert aa._exp_dd(np.zeros(1), np.zeros(1))[0] == 0.5
