import numpy as np
import pytest
from numpy.testing import assert_allclose

from pluriflow import engine, hermitian
from pluriflow import nilflow as nf
from pluriflow.brackets import (
    InnerProductConvention,
    LieBracket,
    basis_change_action,
    bracket_inner_product,
    bracket_norm,
    center,
    derivation_space,
    infinitesimal_action,
)
from pluriflow.catalog import kodaira_bracket
from pluriflow.hermitian import HermitianFrame
from pluriflow.sampling import random_two_step_skt, random_unitary_commuting


def rotated_two_step(rng, blocks, dim_z):
    """A 2-step SKT bracket moved by a random J-commuting orthogonal map, so
    that neither its centre nor v is spanned by coordinate vectors."""
    mu, frame = random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
    return basis_change_action(random_unitary_commuting(rng, mu.dim), mu), frame


def test_ricci_zero_bracket():
    assert np.abs(nf.ricci_endomorphism(LieBracket.zero(4))).max() == 0.0


def test_ricci_kodaira_diagonal():
    mu, _ = kodaira_bracket()
    assert_allclose(nf.ricci_endomorphism(mu), np.diag([-0.5, -0.5, 0.5, 0.0]), atol=1e-14)


def test_ricci_matches_koszul_oracle(rng):
    for blocks in (1, 2):
        mu, _ = random_two_step_skt(rng, blocks=blocks, dim_z=2)
        assert np.abs(nf.ricci_endomorphism(mu) - nf.ricci_koszul(mu)).max() < 1e-11


def koszul_loop(mu):
    """Oracle: Ric(x, y) = sum_i <R(e_i, e_x) e_y, e_i>, one curvature vector at a time."""
    d = mu.dim
    c = mu.coeffs
    g = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
    nab = np.transpose(g, (0, 2, 1))  # nab[i] is the matrix of nabla_{e_i}
    ric = np.zeros((d, d))
    for x in range(d):
        for y in range(d):
            s = 0.0
            for i in range(d):
                r = nab[i] @ nab[x, :, y] - nab[x] @ nab[i, :, y]
                r -= np.einsum("m,mk->k", c[i, x], nab[:, :, y])
                s += r[i]
            ric[x, y] = s
    return ric


def test_koszul_matches_curvature_loop(rng):
    for d in range(4, 11):
        dim_z = int(rng.integers(1, d - 2))
        c = np.zeros((d, d, d))
        c[: d - dim_z, : d - dim_z, d - dim_z :] = rng.standard_normal((d - dim_z, d - dim_z, dim_z))
        mu = LieBracket(c - c.transpose(1, 0, 2))
        n2 = bracket_inner_product(mu, mu)
        assert np.abs(nf.ricci_koszul(mu) - koszul_loop(mu)).max() <= 1e-12 * n2


def test_splitting_rejects_non_two_step():
    # solvable non-nilpotent bracket
    from pluriflow.almostabelian import build_bracket
    from pluriflow.catalog import s_ab_data

    mu = build_bracket(s_ab_data(1.0, 2.0))
    frame = HermitianFrame.antidiagonal(6)
    with pytest.raises(ValueError):
        nf.NilpotentSplitting.from_bracket(mu, frame)


def test_splitting_rejects_abelian():
    with pytest.raises(ValueError):
        nf.NilpotentSplitting.from_bracket(LieBracket.zero(4), HermitianFrame.pairwise(4))


def test_p_endomorphism_trace_identity(rng):
    for blocks in (1, 2):
        mu, frame = random_two_step_skt(rng, blocks=blocks, dim_z=2)
        split = nf.NilpotentSplitting.from_bracket(mu, frame)
        p = nf.p_endomorphism_nil(split)
        n2 = bracket_inner_product(mu, mu)
        assert abs(np.trace(p) + 0.5 * n2) < 1e-12 * n2


def test_moment_map_defining_identity(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    d = mu.dim
    n2 = bracket_inner_product(mu, mu)
    from pluriflow.brackets import infinitesimal_action

    for group, project in (("gl", None), ("gl_v_j", split)):
        m = nf.moment_map(mu, group, split)
        for _ in range(50):
            a = rng.standard_normal((d, d))
            a = 0.5 * (a + a.T)
            if group == "gl_v_j":
                # restrict to the symmetric J-commuting block subalgebra
                pv = split.v_basis @ split.v_basis.T
                a = pv @ a @ pv
                a = 0.5 * (a - frame.J @ a @ frame.J)
            lhs = float(np.sum(m * a)) * n2
            rhs = bracket_inner_product(infinitesimal_action(a, mu), mu)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_moment_map_projection_relation(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    m_full = nf.moment_map(mu, "gl", split)
    m_vj = nf.moment_map(mu, "gl_v_j", split)
    pv = split.v_basis @ split.v_basis.T
    q = pv @ m_full @ pv
    proj = 0.5 * (q - frame.J @ q @ frame.J)
    assert np.abs(m_vj - proj).max() < 1e-12


def test_moment_map_scale_invariance(rng):
    mu, frame = random_two_step_skt(rng, blocks=1, dim_z=2)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    scaled = LieBracket(3.7 * mu.coeffs)
    assert np.abs(nf.moment_map(mu, "gl", split) - nf.moment_map(scaled, "gl", split)).max() < 1e-12


def test_moment_map_zero_bracket_raises():
    with pytest.raises(ValueError):
        nf.moment_map(LieBracket.zero(4), "gl")


def test_convention_pin():
    mu, _ = kodaira_bracket()
    res = nf.verify_moment_convention(mu)
    assert res[InnerProductConvention.ORDERED_PAIRS] < 1e-12
    assert res[InnerProductConvention.UNORDERED_PAIRS] > 0.1


def test_functional_scale_invariance_and_lower_bound(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    f1 = nf.functional_F(split, mu)
    f2 = nf.functional_F(split, LieBracket(2.3 * mu.coeffs))
    assert abs(f1 - f2) < 1e-12 * f1
    assert f1 >= 4.0 / split.dim_v - 1e-12


def test_flow_preserves_center_and_skt(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    traj = nf.integrate_nil_flow(mu, frame, 30.0, "none")
    d = traj.diagnostics()
    assert d["center_drift"].max() < 1e-8
    assert d["skt_residual"].max() < 1e-8
    assert np.all(np.diff(d["mu_norm"]) < 0)


def test_unnormalized_norm_decay_law(rng):
    # d/dt |mu|^2 = -8 |P|^2, checked against finite differences of records
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    mu = LieBracket(mu.coeffs / bracket_norm(mu))
    samples = np.linspace(0.0, 2.0, 201)
    cfg = engine.IntegratorConfig(sample_times=samples)
    traj = nf.integrate_nil_flow(mu, frame, 2.0, "none", cfg)
    split = traj.flow.split
    n2 = np.array([bracket_norm(b) ** 2 for b in traj.brackets()])
    dt = samples[1] - samples[0]
    fd = (n2[2:] - n2[:-2]) / (2 * dt)
    for i, b in enumerate(traj.brackets()[1:-1], start=1):
        p = nf.p_endomorphism_nil(split, b)
        want = -8.0 * float(np.sum(p * p))
        assert abs(fd[i - 1] - want) < 5e-4 * max(1.0, abs(want))


def test_unit_norm_flow_converges_to_soliton(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    traj = nf.integrate_nil_flow(mu, frame, 500.0, "unit_norm")
    assert traj.raw.terminal_event == engine.FIXED_POINT
    x = nf.refine_fixed_point(traj.flow, traj.raw.final_state)
    nu = traj.flow.decode(x)
    split = traj.flow.split
    cert = nf.soliton_limit_certificate(nu, frame, split=split)
    assert cert.residual < 1e-8
    assert cert.alpha < 0
    assert abs(np.trace(nf.p_endomorphism_nil(split, nu)) + 0.5) < 1e-9
    d = traj.diagnostics()
    assert np.all(np.diff(d["F"]) <= 1e-12)
    assert d["F"][0] - d["F"][-1] > 0.1  # strict decrease away from fixed points


def test_unit_norm_flow_stays_on_the_sphere(rng):
    # no renormalization: the unit-norm field is tangent to the sphere, and
    # its integration error keeps the norm and tr P = -|mu|^2/2 to roundoff
    mu, frame = random_two_step_skt(rng, blocks=3, dim_z=4)
    traj = nf.integrate_nil_flow(mu, frame, 1e3, "unit_norm")
    assert traj.raw.terminal_event == engine.FIXED_POINT
    assert np.abs(np.linalg.norm(traj.raw.states, axis=1) - 1.0).max() <= 1e-10
    assert np.abs(traj.diagnostics()["tr_P"] + 0.5).max() <= 1e-9


def test_unit_norm_flow_keeps_the_skt_residual_at_truncation_level():
    # the first d = 6 draw at this seed (item b0-d6 of perfbench's nil_flow
    # workload at seed 1099161428) ended at residual 8.0e-10 under a 5(4) step
    mu, frame = random_two_step_skt(np.random.default_rng(1099161428), blocks=2, dim_z=2)
    traj = nf.integrate_nil_flow(mu, frame, 1e3, "unit_norm")
    assert traj.raw.terminal_event == engine.FIXED_POINT
    assert traj.diagnostics()["skt_residual"].max() <= 1e-10


def test_gradient_equivalence(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    nu = LieBracket(mu.coeffs / bracket_norm(mu))
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    out = nf.gradient_equivalence_check(nu, split)
    assert out["angle"] < 1e-4
    assert abs(out["ratio"] - 16.0) < 1e-6


def test_gradient_equivalence_requires_unit_norm(rng):
    mu, frame = random_two_step_skt(rng, blocks=1, dim_z=2)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    with pytest.raises(ValueError):
        nf.gradient_equivalence_check(mu, split)


def test_non_soliton_has_large_residual(rng):
    # a genuinely flowing initial state is not an algebraic soliton
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    nu = LieBracket(mu.coeffs / bracket_norm(mu))
    split = nf.NilpotentSplitting.from_bracket(nu, frame)
    cert = nf.soliton_limit_certificate(nu, frame, split=split)
    assert cert.residual > 1e-3


def test_soliton_certificate_is_scale_invariant():
    # P is quadratic in the bracket, so alpha and the residual scale by s^2
    # and the derivation space stays put; a rank cutoff taken against a
    # scale-free block would drop real constraints of a small bracket
    mu, frame = random_two_step_skt(np.random.default_rng(3), 2, 4)

    def certify(s):
        nu = LieBracket(s * mu.coeffs)
        cert = nf.soliton_limit_certificate(nu, frame, nf.NilpotentSplitting.from_bracket(nu, frame))
        return len(derivation_space(nu, commute_with=frame.J)), cert.alpha / s**2, cert.residual / s**2

    dim, alpha, residual = certify(1.0)
    assert dim == 12 and residual > 0.5
    for s in (1e-3, 1e-6, 1e-9):
        got = certify(s)
        assert got[0] == dim, s
        assert abs(got[1] - alpha) <= 1e-12 * abs(alpha), s
        assert abs(got[2] - residual) <= 1e-10 * residual, s


def test_equivariance_of_moment_map(rng):
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    q, _ = np.linalg.qr(rng.standard_normal((mu.dim, mu.dim)))
    moved = basis_change_action(q, mu)
    lhs = nf.moment_map(moved, "gl")
    rhs = q @ nf.moment_map(mu, "gl") @ q.T
    assert np.abs(lhs - rhs).max() < 1e-12


# d = 4 with its single pair, and every (blocks, dim_z) split of perfbench's nil_flow workload (d = 6..14)
NIL_SPLITS = [(1, 2), (2, 2), (2, 4), (3, 4), (4, 4), (4, 6)]


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS)
def test_jmap_round_trip_and_isometry(rng, blocks, dim_z):
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    flow = nf.NilFlow(nf.NilpotentSplitting.from_bracket(mu, frame))
    x = flow.encode(mu)
    assert x.size == dim_z * (2 * blocks) * (2 * blocks - 1) // 2
    assert abs(np.dot(x, x) - bracket_inner_product(mu, mu)) < 1e-12 * np.dot(x, x)
    assert np.abs(flow.decode(x).coeffs - mu.coeffs).max() < 1e-12 * np.abs(mu.coeffs).max()
    y = rng.standard_normal(x.size)
    assert_allclose(flow.encode(flow.decode(y)), y, rtol=0, atol=1e-13)
    assert abs(bracket_norm(flow.decode(y)) - np.linalg.norm(y)) < 1e-13 * np.linalg.norm(y)


@pytest.mark.parametrize("blocks, dim_z", [(1, 2), (2, 2), (2, 4), (4, 4)])
def test_jmap_field_matches_dense_oracle(rng, blocks, dim_z):
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    dense = -infinitesimal_action(nf.p_endomorphism_nil(split, mu), mu).coeffs.ravel()
    # relative to the unnormalized field: a single Heisenberg block is a
    # soliton, whose normalized field is zero
    scale = np.linalg.norm(dense)
    for normalized in (False, True):
        flow = nf.NilFlow(split, normalized=normalized)
        x = flow.encode(mu)
        want = engine.normalize_projection(dense, mu.coeffs.ravel()) if normalized else dense
        got = flow.decode(flow.field(x)).coeffs.ravel()
        assert np.linalg.norm(got - want) <= 1e-13 * scale
    # P itself, block for block
    p_v = split.v_basis.T @ nf.p_endomorphism_nil(split, mu) @ split.v_basis
    assert np.abs(flow.p_block(x) - p_v).max() <= 1e-13 * np.abs(p_v).max()


def index_field(flow, x):
    """Oracle: the field by index scatter and gather, j_k' = j_k P + P j_k with
    P = 1/2 (Ric - J_v Ric J_v) and Ric = -1/2 sum_k j_k^t j_k."""
    dim_z, dim_v = flow.split.z_basis.shape[1], flow.split.dim_v
    iu, ju = np.triu_indices(dim_v, k=1)
    vals = x.reshape(dim_z, -1) / np.sqrt(2.0)
    j = np.zeros((dim_z, dim_v, dim_v))
    j[:, iu, ju] = vals
    j[:, ju, iu] = -vals
    s = j.reshape(-1, dim_v)
    ric = -0.5 * s.T @ s
    j_v = flow.split.v_basis.T @ flow.split.frame.J @ flow.split.v_basis
    p = 0.5 * (ric - j_v @ ric @ j_v)
    out = np.sqrt(2.0) * (j @ p + p @ j)[:, iu, ju].ravel()
    return engine.normalize_projection(out, x) if flow.normalized else out


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS)
def test_packed_field_matches_index_oracle(rng, blocks, dim_z):
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    x0 = nf.NilFlow(split).encode(mu)
    # the SKT state, and states off the SKT set at scales away from 1
    states = [x0] + [s * rng.standard_normal(x0.size) for s in (1e-3, 1.0, 1e3)]
    for x in states:
        # relative to the unnormalized field, which a soliton's normalized field is not
        scale = np.linalg.norm(index_field(nf.NilFlow(split), x))
        for normalized in (False, True):
            flow = nf.NilFlow(split, normalized=normalized)
            assert np.linalg.norm(flow.field(x) - index_field(flow, x)) <= 1e-14 * scale


@pytest.mark.parametrize("blocks, dim_z", [(1, 2), (3, 4)])
def test_jmaps_and_p_block_of_a_stack_equal_those_of_each_state(rng, blocks, dim_z):
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    flow = nf.NilFlow(nf.NilpotentSplitting.from_bracket(mu, frame))
    states = rng.standard_normal((3, 5, flow.encode(mu).size))
    j, p = flow.jmaps(states), flow.p_block(states)
    assert j.shape == (3, 5, dim_z, 2 * blocks, 2 * blocks) and p.shape == (3, 5, 2 * blocks, 2 * blocks)
    for idx in np.ndindex(3, 5):
        assert np.array_equal(j[idx], flow.jmaps(states[idx]))
        assert_allclose(p[idx], flow.p_block(states[idx]), rtol=1e-15, atol=1e-15 * np.abs(p[idx]).max())


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS)
def test_field_obeys_the_norm_decay_law(rng, blocks, dim_z):
    # d|mu|^2/dt = 2 <x, f(x)> = -8 |P|^2 on every state, and the unit-norm
    # field is tangent to the sphere
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    flow, unit = nf.NilFlow(split), nf.NilFlow(split, normalized=True)
    x0 = flow.encode(mu)
    for x in [x0 / np.linalg.norm(x0)] + [s * rng.standard_normal(x0.size) for s in (1e-3, 1.0, 1e3)]:
        n2 = np.dot(x, x)
        p = nf.p_endomorphism_nil(split, flow.decode(x))
        assert abs(2.0 * np.dot(x, flow.field(x)) + 8.0 * np.sum(p * p)) <= 1e-13 * n2**2
        u = x / np.sqrt(n2)
        assert abs(np.dot(u, unit.field(u))) <= 1e-14


def test_center_drift_agrees_with_dense_center(rng):
    mu, frame = rotated_two_step(rng, 2, 4)
    traj = nf.integrate_nil_flow(mu, frame, 50.0, "unit_norm")
    flow, dim_z = traj.flow, traj.flow.split.z_basis.shape[1]
    # append a state in which the first vector of v is central as well
    v1 = flow.split.v_basis[:, 0]
    k = np.eye(mu.dim) - np.outer(v1, v1)
    c = flow.decode(traj.raw.final_state).coeffs
    x_open = flow.encode(LieBracket(np.einsum("ai,bj,abk->ijk", k, k, c)))
    states = np.vstack([traj.raw.states, x_open])
    times = np.arange(len(states), dtype=float)
    rec = nf.NilTrajectory(flow, engine.Trajectory(times=times, states=states, terminal_event=engine.HORIZON))
    drift = rec.diagnostics()["center_drift"]
    dense_ok = [center(flow.decode(x)).shape[1] == dim_z for x in states]
    assert list(drift == 0.0) == dense_ok
    assert drift[-1] == np.pi / 2 and np.all(drift[:-1] == 0.0)


def test_refine_fixed_point_d12(rng):
    mu, frame = rotated_two_step(rng, 4, 4)
    traj = nf.integrate_nil_flow(mu, frame, 1e3, "unit_norm")
    assert traj.raw.terminal_event == engine.FIXED_POINT
    x = nf.refine_fixed_point(traj.flow, traj.raw.final_state)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-15
    # a root to roundoff: a step that inverts the difference quotients' noise
    # along the orbit of fixed points leaves |f| near 1e-14 or worse
    assert np.linalg.norm(traj.flow.field(x)) < 1e-15


def _assert_skt_column_matches_oracle(flow, states):
    # at d = 4, dc = 0 on the 4-forms of v and the dense oracle reads roundoff
    got = flow.skt_residual(states)
    want = [hermitian.skt_residual(flow.decode(x), flow.split.frame) / np.dot(x, x) for x in states]
    assert_allclose(got, want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("blocks, dim_z", [(1, 2), (2, 2), (2, 4), (3, 4), (4, 4), (4, 6)])
def test_jmap_skt_residual_matches_dense_oracle(rng, blocks, dim_z):
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    flow = nf.NilFlow(nf.NilpotentSplitting.from_bracket(mu, frame))
    x0 = flow.encode(mu)
    # SKT, then perturbed off the SKT set at a scale away from 1
    states = np.vstack([x0, 3.7 * x0 + rng.standard_normal((40, x0.size))])
    _assert_skt_column_matches_oracle(flow, states)
    assert flow.skt_residual(states[1:]).min() > 1e-8 or mu.dim == 4
    assert flow.skt_residual(x0).shape == () and flow.skt_residual(np.zeros(x0.size)) == 0.0


def test_jmap_skt_residual_on_flow_states(rng):
    mu, frame = rotated_two_step(rng, 3, 4)
    for normalization in ("unit_norm", "none"):
        traj = nf.integrate_nil_flow(mu, frame, 50.0, normalization)
        _assert_skt_column_matches_oracle(traj.flow, traj.raw.states)
        assert np.array_equal(traj.diagnostics()["skt_residual"], traj.flow.skt_residual(traj.raw.states))


def test_diagnostics_build_no_dense_bracket(rng, monkeypatch):
    mu, frame = rotated_two_step(rng, 2, 4)
    traj = nf.integrate_nil_flow(mu, frame, 10.0, "unit_norm")

    def forbidden(*args, **kwargs):
        raise AssertionError("diagnostics() must stay on the j-map state")

    monkeypatch.setattr(nf.NilFlow, "decode", forbidden)
    monkeypatch.setattr(hermitian, "skt_residual", forbidden)
    assert traj.diagnostics()["skt_residual"].max() < 1e-9



def test_integrate_refuses_overflow_and_nan_residual(monkeypatch):
    mu, frame = kodaira_bracket()
    big = LieBracket(1e200 * mu.coeffs)  # finite, but |mu|^2 overflows
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="arithmetic overflow"):
        nf.integrate_nil_flow(big, frame, 1.0, "unit_norm")
    monkeypatch.setattr(nf.NilFlow, "skt_residual", lambda self, states: np.float64(np.nan))
    for normalization in ("none", "unit_norm"):
        with pytest.raises(ValueError, match="not pluriclosed"):
            nf.integrate_nil_flow(mu, frame, 1.0, normalization)


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS)
def test_soliton_certificate_matches_the_dense_fit_at_flow_limits(rng, soliton_fit, blocks, dim_z):
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    traj = nf.integrate_nil_flow(mu, frame, 1e3, "unit_norm")
    assert traj.raw.terminal_event == engine.FIXED_POINT
    nu, split = traj.flow.decode(traj.raw.final_state), traj.flow.split
    cert = nf.soliton_limit_certificate(nu, frame, split)
    alpha, residual = soliton_fit(nf.p_endomorphism_nil(split, nu), nu, frame.J)
    assert abs(cert.alpha - alpha) <= 1e-12 * abs(alpha)
    assert cert.residual <= 1e-10 and residual <= 1e-10


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS[1:])
def test_soliton_residual_is_the_dense_action_of_p_minus_alpha(rng, blocks, dim_z):
    # at a start bracket with more than one block, which is no soliton:
    # |pi(P - alpha Id) mu| / |mu|
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    cert = nf.soliton_limit_certificate(mu, frame, split)
    d = nf.p_endomorphism_nil(split) - cert.alpha * np.eye(mu.dim)
    want = bracket_norm(infinitesimal_action(d, mu)) / bracket_norm(mu)
    assert want > 1e-3 and abs(cert.residual - want) <= 1e-13 * want


def test_soliton_certificate_of_kodaira():
    # P = diag(-1/2, -1/2, 0, 0) = -Id + diag(1/2, 1/2, 1, 1), the second a derivation
    mu, frame = kodaira_bracket()
    cert = nf.soliton_limit_certificate(mu, frame, nf.NilpotentSplitting.from_bracket(mu, frame))
    assert abs(cert.alpha + 1.0) <= 1e-15 and cert.residual == 0.0


def test_soliton_certificate_refuses_what_the_state_cannot_hold():
    mu, frame = kodaira_bracket()
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    # [e1, e3] = e2 leaves v ^ v -> z, and encode would drop it
    off = LieBracket.from_entries(4, [(0, 1, 2, 1.0), (0, 2, 1, 1e-6)])
    with pytest.raises(ValueError, match="not 2-step"):
        nf.soliton_limit_certificate(off, frame, split)
    with pytest.raises(ValueError, match="splitting's"):
        nf.soliton_limit_certificate(mu, HermitianFrame(-frame.J), split)
    zero = nf.soliton_limit_certificate(LieBracket.zero(4), frame, split)
    assert (zero.alpha, zero.residual) == (0.0, 0.0)
