import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pluriflow import almostabelian as aa
from pluriflow import engine
from pluriflow.brackets import LieBracket, infinitesimal_action, jacobi_residual
from pluriflow.catalog import get_entry, s_ab_data
from pluriflow.hermitian import HermitianFrame
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


def test_build_bracket_examples(sab, shrink):
    assert jacobi_residual(aa.build_bracket(aa.AlmostAbelianData.with_standard_j1(0.0, np.zeros(4), np.zeros((4, 4))))) == 0.0
    lam = np.sort_complex(np.linalg.eigvals(sab.A))
    want = np.sort_complex(np.array([-0.5, -0.5, 1j * np.pi / 2, -1j * np.pi / 2]))
    assert np.abs(lam - want).max() < 1e-12
    mu = aa.build_bracket(shrink)
    ad = np.array([mu(np.eye(10)[9], e) for e in np.eye(10)[:9]]).T
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
    """(a', v', A') of the reduced flow in the given mode at data."""
    return aa.AlmostAbelianData.state_split(data.m, aa.ReducedFlow(data, mode).field(data.to_state()))


def test_reduced_field_fixed_points_and_scaling(steady, shrink):
    da, dv, dA = _field(steady)
    assert abs(da) == 0.0 and np.abs(dv).max() < 1e-15 and np.abs(dA).max() == 0.0
    da, dv, dA = _field(shrink)
    assert abs(da - shrink.a**3 / 4.0) < 1e-14
    assert_allclose(dA, (shrink.a**2 / 4.0) * shrink.A)


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
        k = aa.skt_verdict(data).k
        mu = aa.build_bracket(data)
        p = aa.p_matrix(data, aa.p_components(data, k))
        u = aa.gauge_matrix(data)
        full = LieBracket(-infinitesimal_action(p - u, mu).coeffs)
        da, dv, dA = _field(data)
        derivative = aa.build_bracket(aa.AlmostAbelianData(da, dv, dA, data.J1))
        assert np.abs(full.coeffs - derivative.coeffs).max() < 1e-10


def test_normalized_field(sab, rng):
    assert np.abs(_field(sab, aa.A_NORM_FIXED)[1]).max() == 0.0  # v = 0
    data = random_skt_almost_abelian(rng, m=4)
    k = aa.skt_verdict(data).k
    _, dv_n, _ = _field(data, aa.A_NORM_FIXED)
    da, dv, dA = _field(data)
    c = aa.p_components(data, k).c
    assert np.abs(dv_n - (dv - c * data.v)).max() < 1e-12
    assert np.abs(da - c * data.a) < 1e-12
    assert np.abs(dA - c * data.A).max() < 1e-12


def test_normalized_field_soliton_fixed_point(steady):
    # v is an eigenvector of S with eigenvalue |v|^2 / 2
    _, dv, _ = _field(steady, aa.A_NORM_FIXED)
    assert np.abs(dv).max() < 1e-14


def test_eigencomponent_dynamics(steady, rng):
    comps = aa.eigencomponent_dynamics(steady)
    assert len(comps) == 1
    lam, r, dr = comps[0]
    assert abs(lam - 1.0) < 1e-12 and abs(r - 1.0) < 1e-12
    assert abs(dr - 2 * r * (lam - r)) < 1e-12
    # ratio law: d/dt log(r_i / r_s) = 2 (lambda_i - lambda_s)
    vmix = steady.v.copy()
    vmix[0] = 0.4
    mixed = steady.replace(v=vmix)
    comps = aa.eigencomponent_dynamics(mixed)
    assert len(comps) == 2
    (l1, r1, d1), (l2, r2, d2) = comps
    lhs = d1 / r1 - d2 / r2
    assert abs(lhs - 2 * (l1 - l2)) < 1e-12


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
        a, v, _ = aa.AlmostAbelianData.state_split(data.m, x)
        r_m = 0.5 * float(np.linalg.norm(top.T @ v) ** 2)
        vals_t.append(r_m / a**4)
    vals_t = np.array(vals_t)
    assert np.abs(vals_t / vals_t[0] - 1.0).max() < 1e-7


def test_soliton_certificates(sab, shrink, steady, rng):
    c1 = aa.soliton_certificate(sab)
    assert c1.kind is aa.SolitonKind.EXPANDING and abs(c1.alpha + 0.25) < 1e-14
    c2 = aa.soliton_certificate(shrink)
    assert c2.kind is aa.SolitonKind.SHRINKING and abs(c2.alpha - 1.0) < 1e-14
    c3 = aa.soliton_certificate(steady)
    assert c3.kind is aa.SolitonKind.STEADY and abs(c3.alpha) < 1e-14
    assert abs(c3.eigen_lambda - 1.0) < 1e-12
    for cert in (c1, c2, c3):
        assert cert.residual < 1e-10
        assert cert.derivation is not None
    # generic SKT data with v not an S-eigenvector is no soliton
    data = random_skt_almost_abelian(rng, m=6)
    while np.linalg.norm(data.v) < 0.2:
        data = random_skt_almost_abelian(rng, m=6)
    cert = aa.soliton_certificate(data)
    assert cert.kind is aa.SolitonKind.NONE


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


def test_classify_invariant_under_scaling_and_unitary(rng):
    data = random_skt_almost_abelian(rng, m=6)
    base = aa.classify(data).table_case
    scaled = data.replace(a=2.0 * data.a, v=2.0 * data.v, A=2.0 * data.A)
    assert aa.classify(scaled).table_case == base
    q = random_unitary_commuting(rng, 6)
    rotated = aa.AlmostAbelianData(data.a, q @ data.v, q @ data.A @ q.T, data.J1)
    assert aa.classify(rotated).table_case == base


def test_classify_rejects_nilpotent():
    with pytest.raises(ValueError):
        aa.classify(aa.AlmostAbelianData(0.0, np.array([1.0, 0.0]), np.zeros((2, 2)), HermitianFrame.pairwise(2).J))


def test_self_similar_scaling(sab, shrink, steady):
    traj = aa.integrate_reduced_flow(shrink, aa.UNNORMALIZED, 0.45)
    assert aa.self_similar_deviation(shrink, traj) < 1e-6
    traj = aa.integrate_reduced_flow(steady, aa.UNNORMALIZED, 100.0)
    assert aa.self_similar_deviation(steady, traj) < 1e-9
    traj = aa.integrate_reduced_flow(sab, aa.UNNORMALIZED, 100.0)
    assert aa.self_similar_deviation(sab, traj) < 1e-6


def test_json_round_trip(steady):
    back = aa.AlmostAbelianData.from_json_dict(steady.to_json_dict())
    assert back.a == steady.a
    assert_allclose(back.A, steady.A)
    assert_allclose(back.v, steady.v)
    data = aa.AlmostAbelianData.from_json_dict({"a": 1.0, "v": [0.0] * 4, "A": s_ab_data(1.0, 2.0).A.tolist(), "J1": "standard"})
    assert data.dim == 6


def test_reduced_flow_requires_skt(rng):
    data = random_generic_almost_abelian(rng, m=4)
    with pytest.raises(ValueError):
        aa.integrate_reduced_flow(data, aa.UNNORMALIZED, 1.0)


def test_catalog_parameters_are_arithmetic_only():
    assert get_entry("s_ab(pi/2, -1)").data.a == np.pi / 2
    assert get_entry("s_ab((1 + 1) / 4, -(2))").data.a == 0.5
    for name in ("s_ab(2**3, 1)", "s_ab(ip, 1)"):
        with pytest.raises(ValueError):
            get_entry(name)


def _diagnostics_oracle(traj):
    """ReducedTrajectory.diagnostics as a loop over rows, each formula on one matrix."""
    from pluriflow.hermitian import skt_closure_residual
    from pluriflow.normality import normality_defect

    m = traj.data0.m
    rows = []
    for t, x in zip(traj.raw.times, traj.raw.states):
        a, v, A = aa.AlmostAbelianData.state_split(m, x)
        scale2 = max(a * a + float(np.sum(A * A)), 1e-300)
        rows.append([
            float(t), a, float(np.linalg.norm(v)), float(np.linalg.norm(A)),
            aa._c_scalar(traj.k, a, float(v @ v)),
            skt_closure_residual(a, A) / scale2, normality_defect(A) / scale2,
        ])
    names = ["t", "a", "v_norm", "A_norm", "c", "skt_residual", "normality_defect"]
    return dict(zip(names, np.array(rows).T))


def _assert_diagnostics_match_oracle(traj):
    got, want = traj.diagnostics(), _diagnostics_oracle(traj)
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_diagnostics_match_row_loop_on_blowup(shrink):
    traj = aa.integrate_reduced_flow(shrink, aa.UNNORMALIZED, 2.0)
    assert traj.raw.terminal_event == engine.BLOWUP
    assert len(traj.times) > aa._DIAG_CHUNK  # more than one chunk
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
    # at this a, a**2 (the power the field takes in c) and a * a differ in the last bit
    x = shrink.to_state()
    x[0] = 0.9827323782383632
    assert x[0] ** 2 != x[0] * x[0]
    raw = engine.Trajectory(times=np.array([0.0]), states=x[None, :], terminal_event=engine.HORIZON)
    traj = aa.ReducedTrajectory(data0=shrink, k=aa.skt_verdict(shrink).k, mode=aa.UNNORMALIZED, raw=raw)
    cols = traj.diagnostics()
    assert all(col.shape == (1,) for col in cols.values())
    _assert_diagnostics_match_oracle(traj)
