import csv
import io
import json
from itertools import combinations
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pluriflow import cli, engine, hermitian
from pluriflow import nilflow as nf
from pluriflow.brackets import (
    LieBracket,
    basis_change_action,
    bracket_inner_product,
    bracket_norm,
    center,
    derivation_space,
    infinitesimal_action,
    jacobi_residual,
)
from pluriflow.catalog import kodaira_bracket
from pluriflow.hermitian import HermitianFrame
from pluriflow.sampling import random_two_step_skt, random_unitary_commuting
from pluriflow.serialize import format_float


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


def test_ricci_is_bitwise_the_tensordot_formula(rng):
    for blocks, dim_z in ((1, 2), (2, 2), (3, 4)):
        mu, _ = random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
        c = mu.coeffs
        want = -0.5 * np.tensordot(c, c, axes=([1, 2], [1, 2])) + 0.25 * np.tensordot(c, c, axes=([0, 1], [0, 1]))
        assert np.array_equal(nf.ricci_endomorphism(mu).view(np.uint64), want.view(np.uint64))


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
    # <m(mu), A> |mu|^2 = <pi(A) mu, mu>, m(mu) = (4/|mu|^2) Ric, holds for the
    # ordered pairing; its half, the sum over i < j alone, misses by a factor of two
    mu, _ = kodaira_bracket()
    rng = np.random.default_rng(0)
    ric = nf.ricci_endomorphism(mu)
    n2 = bracket_inner_product(mu, mu)
    worst = {1.0: 0.0, 0.5: 0.0}  # by the pairing's scale against the ordered one
    for _ in range(32):
        a = rng.standard_normal((mu.dim, mu.dim))
        a = 0.5 * (a + a.T)
        full = bracket_inner_product(infinitesimal_action(a, mu), mu)
        for s in worst:
            lhs, rhs = float(np.sum((4.0 / (s * n2)) * ric * a)) * (s * n2), s * full
            worst[s] = max(worst[s], abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst[1.0] < 1e-12
    assert worst[0.5] > 0.1


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
    brackets = [traj.flow.decode(x) for x in traj.raw.states]
    n2 = np.array([bracket_norm(b) ** 2 for b in brackets])
    dt = samples[1] - samples[0]
    fd = (n2[2:] - n2[:-2]) / (2 * dt)
    for i, b in enumerate(brackets[1:-1], start=1):
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
# a split for each even d = 4..16
SPLITS_TO_16 = NIL_SPLITS + [(4, 8)]


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


def matmul_field(flow, x):
    """Oracle: NilFlow.field's products written with the @ operator."""
    dim_z, dim_v, _ = flow._shape
    t = (x.reshape(dim_z, -1) @ flow._unpack_t).reshape(-1, dim_v)
    tp = (t @ (t.T @ t)).reshape(dim_z, -1)
    out = (tp[:, : dim_v * dim_v] @ flow._pack).ravel()
    return engine.normalize_projection(out, x) if flow.normalized else out


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS[1:])
def test_field_is_bitwise_the_matmul_products(rng, blocks, dim_z):
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    x0 = nf.NilFlow(split).encode(mu)
    states = [x0] + [s * rng.standard_normal(x0.size) for s in (1e-3, 1.0, 1e3) for _ in range(20)]
    for normalized in (False, True):
        flow = nf.NilFlow(split, normalized=normalized)
        for x in states:
            assert np.array_equal(flow.field(x), matmul_field(flow, x))


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
    # the dense d(c) of hermitian, pulled back by V on its four indices and
    # read on the 4-subsets of v; below dim_v = 4 there are none
    got = flow.skt_residual(states)
    v, frame = flow.split.v_basis, flow.split.frame
    subsets = tuple(np.array(list(combinations(range(v.shape[1]), 4)), dtype=np.intp).reshape(-1, 4).T)
    want = []
    for x in states:
        mu = flow.decode(x)
        dc = hermitian.exterior_derivative_c(mu, hermitian.torsion_three_form(mu, frame))
        dc_v = np.einsum("ijkl,ia,jb,kc,ld->abcd", dc, v, v, v, v, optimize=True)
        want.append(np.abs(dc_v[subsets]).max(initial=0.0) / np.dot(x, x))
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


@pytest.mark.parametrize("blocks, dim_z", SPLITS_TO_16)
def test_skt_residual_does_not_depend_on_the_stack_size(rng, monkeypatch, blocks, dim_z):
    # a budget of 1 byte takes one state at a time, 1 << 40 all states at once
    mu, frame = rotated_two_step(rng, blocks, dim_z)
    flow = nf.NilFlow(nf.NilpotentSplitting.from_bracket(mu, frame))
    x0 = flow.encode(mu)
    states = np.vstack([x0, 3.7 * x0 + rng.standard_normal((300, x0.size))])
    want = flow.skt_residual(states)
    for budget in (1, 1 << 40):
        monkeypatch.setattr(nf, "_SKT_BYTES", budget)
        assert np.array_equal(flow.skt_residual(states), want)


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS[1:])
def test_skt_residual_of_a_trajectory_does_not_depend_on_the_stack_size(rng, monkeypatch, blocks, dim_z):
    mu, frame = random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
    traj = nf.integrate_nil_flow(mu, frame, 1e3, "unit_norm")
    want = traj.diagnostics()["skt_residual"]
    for budget in (1, 1 << 40):
        monkeypatch.setattr(nf, "_SKT_BYTES", budget)
        assert np.array_equal(traj.flow.skt_residual(traj.raw.states), want)


def heisenberg_plus_abelian(d):
    """Heisenberg (+) R^(d-3), [e_1, e_2] = e_d: v = span(e_1, e_2) is 2-dimensional."""
    c = np.zeros((d, d, d))
    c[0, 1, d - 1], c[1, 0, d - 1] = 1.0, -1.0
    return LieBracket(c), HermitianFrame.pairwise(d)


@pytest.mark.parametrize("case", ["kodaira", 6, 12, 40])
def test_skt_residual_is_exactly_zero_below_four_dimensions_of_v(case):
    # d(c) lies in the 4-forms of v, which are 0 at dim_v = 2
    mu, frame = kodaira_bracket() if case == "kodaira" else heisenberg_plus_abelian(case)
    for normalization in ("none", "unit_norm"):
        traj = nf.integrate_nil_flow(mu, frame, 10.0, normalization)
        assert traj.flow.split.dim_v == 2
        assert np.all(traj.diagnostics()["skt_residual"] == 0.0)


def test_skt_plan_is_built_once_per_flow_and_only_by_the_residual(rng, monkeypatch):
    calls = []
    build = nf.NilFlow._build_skt_plan

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(nf.NilFlow, "_build_skt_plan", counted)
    mu, frame = rotated_two_step(rng, 3, 4)
    split = nf.NilpotentSplitting.from_bracket(mu, frame)
    nf.soliton_limit_certificate(mu, frame, split)
    assert calls == []
    traj = nf.integrate_nil_flow(mu, frame, 10.0, "unit_norm")
    traj.diagnostics()
    traj.flow.skt_residual(traj.raw.states)
    assert calls == [traj.flow]
    # one plan entry per 4-subset of v, for each of the six entries of G
    assert traj.flow._skt_plan[1].shape == (6, comb(6, 4))


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


def test_integrate_reads_no_jacobi_residual_on_a_two_step_bracket(rng, monkeypatch):
    def forbidden(mu):
        raise AssertionError("an accepted splitting needs no Jacobi check")

    monkeypatch.setattr(nf, "jacobi_residual", forbidden)
    for blocks, dim_z in NIL_SPLITS:
        mu, frame = rotated_two_step(rng, blocks, dim_z)
        for normalization in ("none", "unit_norm"):
            traj = nf.integrate_nil_flow(mu, frame, 1.0, normalization)
            assert traj.raw.terminal_event in (engine.HORIZON, engine.FIXED_POINT)


def _refusal(mu, frame):
    """integrate_nil_flow's message on mu, or None when it flows."""
    try:
        nf.integrate_nil_flow(mu, frame, 1e-3, "unit_norm")
    except ValueError as exc:
        return str(exc)
    return None


def _refusal_with_jacobi_first(mu, frame):
    """The refusal when the Jacobi identity is checked before the splitting."""
    if jacobi_residual(mu) > nf._JACOBI_TOL * bracket_inner_product(mu, mu):
        return "bracket violates the Jacobi identity"
    return _refusal(mu, frame)


def test_refusals_at_the_splitting_tolerance_keep_the_jacobi_first_outcome(rng):
    # a 2-step bracket plus eps max|c| (v_a ^ v_b -> v_c), which takes the
    # derived algebra off the centre: the splitting refuses it above
    # eps = 1e-9, and the Jacobi identity fails at the largest eps
    messages = set()
    for blocks, dim_z in SPLITS_TO_16[1:]:
        for _ in range(4):
            mu, frame = rotated_two_step(rng, blocks, dim_z)
            v = nf.NilpotentSplitting.from_bracket(mu, frame).v_basis
            a, b, c = v[:, rng.choice(v.shape[1], 3, replace=False)].T
            wedge = np.einsum("i,j,k->ijk", a, b, c)
            for eps in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6):
                nu = LieBracket(mu.coeffs + eps * np.abs(mu.coeffs).max() * (wedge - wedge.transpose(1, 0, 2)))
                want = _refusal_with_jacobi_first(nu, frame)
                assert _refusal(nu, frame) == want
                messages.add(want)
    assert None in messages and "bracket violates the Jacobi identity" in messages
    assert any(m and "not 2-step" in m for m in messages)


def test_integrate_reads_the_jacobi_identity_before_encode_refuses(monkeypatch, band_bracket):
    # the splitting takes the band bracket and encode refuses it; the Jacobi
    # identity is read first, and its message would win
    mu, frame = band_bracket
    nf.NilpotentSplitting.from_bracket(mu, frame)
    calls = []
    monkeypatch.setattr(nf, "jacobi_residual", lambda m: calls.append(m) or jacobi_residual(m))
    with pytest.raises(ValueError, match=r"^bracket is not 2-step on the splitting \(it leaves v \^ v -> z\)$"):
        nf.integrate_nil_flow(mu, frame, 1.0, "none")
    assert len(calls) == 1 and calls[0] is mu
    monkeypatch.setattr(nf, "jacobi_residual", lambda m: np.inf)
    with pytest.raises(ValueError, match="^bracket violates the Jacobi identity$"):
        nf.integrate_nil_flow(mu, frame, 1.0, "unit_norm")


def _write_input(path, mu, frame):
    path.write_text(json.dumps({**mu.to_json_dict(), "J": frame.J.tolist()}))
    return path


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS)
def test_check_tr_p_is_the_first_tr_p_of_the_flow_csv(tmp_path, capsys, rng, blocks, dim_z):
    # both read P off the state by NilFlow.p_block
    path = _write_input(tmp_path / "mu.json", *rotated_two_step(rng, blocks, dim_z))
    assert cli.main(["check", str(path)]) == 0
    tr_p = json.loads(capsys.readouterr().out)["tr_P"]
    assert cli.main(["flow", str(path), "--horizon", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert float(rows[0]["tr_P"]) == tr_p


@pytest.mark.parametrize("blocks, dim_z", NIL_SPLITS)
def test_check_dc_residual_is_the_first_skt_residual_of_the_flow_csv(tmp_path, capsys, monkeypatch, rng, blocks, dim_z):
    # both read d(c) off the state by NilFlow.skt_residual, and neither reads
    # the ambient d(c) or the Jacobi sum, which hold on a state exactly
    def forbidden(*args):
        raise AssertionError("a 2-step state needs neither the ambient d(c) nor the Jacobi sum")

    for module in (cli, hermitian):
        monkeypatch.setattr(module, "skt_residual", forbidden)
    for module in (cli, nf):
        monkeypatch.setattr(module, "jacobi_residual", forbidden)
    path = _write_input(tmp_path / "mu.json", *rotated_two_step(rng, blocks, dim_z))
    assert cli.main(["check", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["skt"]["is_skt"] is True and "jacobi_residual" not in doc and "note" not in doc
    assert cli.main(["flow", str(path), "--horizon", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert float(rows[0]["skt_residual"]) == doc["skt"]["dc_residual"]


def test_flow_certifies_its_final_state_without_a_dense_bracket(tmp_path, capsys, monkeypatch, rng):
    path = _write_input(tmp_path / "mu.json", *rotated_two_step(rng, 3, 4))
    load, integrate, post_init = cli._load_input, nf.integrate_nil_flow, LieBracket.__post_init__
    built, runs = [], []

    def loaded(spec):
        out = load(spec)
        monkeypatch.setattr(LieBracket, "__post_init__", lambda self: built.append(self) or post_init(self))
        return out

    monkeypatch.setattr(cli, "_load_input", loaded)
    monkeypatch.setattr(nf, "integrate_nil_flow", lambda *args: runs.append(integrate(*args)) or runs[-1])
    assert cli.main(["flow", str(path), "--mode", "normalized", "--horizon", "1000"]) == 0
    assert built == []
    summary = capsys.readouterr().err.split()
    traj, = runs
    assert traj.raw.terminal_event == engine.FIXED_POINT
    cert = traj.flow.soliton_certificate(traj.raw.final_state)
    assert f"soliton_residual={format_float(cert.residual)}" in summary


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
