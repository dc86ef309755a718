import numpy as np
import pytest

from pluriflow import engine
from pluriflow.normality import (
    normality_defect,
    normality_flow,
    normality_report,
    spectrum_distance,
)


def _field_oracle(n):
    """The normality field E' = 4 [E, [E, E^t]] written with @ products."""

    def field(x):
        e = x.reshape(n, n)
        comm = e @ e.T - e.T @ e
        return 4.0 * (e @ comm - comm @ e).ravel()

    return field


def test_report_symmetric_equalities(rng):
    e = rng.standard_normal((5, 5))
    e = 0.5 * (e + e.T)
    rep = normality_report(e)
    assert abs(rep.frobenius_gap) < 1e-10
    assert abs(rep.sym_gap) < 1e-10
    assert rep.normality_defect < 1e-12


def test_report_jordan_block():
    rep = normality_report(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert rep.frobenius_sq == 1.0
    assert rep.eigen_abs_sq_sum < 1e-20
    assert abs(rep.sym_gap - 0.5) < 1e-14  # sym part has eigenvalues +-1/2


def test_report_rotation_is_normal():
    th = 0.7
    e = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rep = normality_report(e)
    assert abs(rep.eigen_abs_sq_sum - 2.0) < 1e-12
    assert abs(rep.frobenius_gap) < 1e-12


def test_gaps_nonnegative_random(rng):
    for _ in range(200):
        n = int(rng.integers(2, 11))
        rep = normality_report(rng.standard_normal((n, n)))
        assert rep.frobenius_gap >= -1e-10
        assert rep.sym_gap >= -1e-10


def test_flow_constant_on_normal_input(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    e0 = q @ np.diag([1.0, -2.0, 0.5, 3.0]) @ q.T
    traj, decode = normality_flow(e0, horizon=5.0)
    assert np.abs(decode(traj.final_state) - e0).max() < 1e-10


def test_flow_jordan_collapse():
    traj, decode = normality_flow(
        np.array([[0.0, 1.0], [0.0, 0.0]]), horizon=1e16, config=engine.IntegratorConfig()
    )
    e = decode(traj.final_state)
    assert np.linalg.norm(e) < 1e-7
    assert normality_defect(e) < 1e-8
    # |E|^2 decays by -8 |[E, E^t]|^2: closed form |E(t)| = (1 + 16 t)^(-1/2)
    mid = traj.times.searchsorted(1.0)
    assert abs(np.linalg.norm(traj.states[mid]) - (1 + 16 * traj.times[mid]) ** -0.5) < 1e-6


def test_flow_preserves_spectrum_and_decreases_defect(rng):
    e0 = rng.standard_normal((5, 5))
    traj, decode = normality_flow(e0, horizon=40.0)
    drift = spectrum_distance(e0, decode(traj.final_state))
    assert drift < 1e-10
    defects = [normality_defect(decode(x)) for x in traj.states]
    assert all(b <= a + 1e-9 for a, b in zip(defects, defects[1:]))
    assert defects[-1] < 1e-8


def test_spectrum_distance_of_a_similarity_is_roundoff(rng):
    for n in range(1, 9):
        for _ in range(20):
            e = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n)) + n * np.eye(n)
            assert spectrum_distance(e, g @ e @ np.linalg.inv(g)) < 1e-13


def test_spectrum_distance_at_a_double_eigenvalue(rng):
    # E0 = q T q^t with T triangular: its spectrum is T's diagonal, with the
    # double eigenvalue 1 in a nontrivial Jordan-like coupling, so eigenvalues
    # computed one by one carry errors near sqrt(eps)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        t = np.triu(rng.standard_normal((5, 5)), 1)
        t[range(5), range(5)] = [1.0, 1.0, -0.5, 2.0, 0.3]
        e0 = q @ t @ q.T
        traj, decode = normality_flow(e0, horizon=40.0)
        assert spectrum_distance(e0, decode(traj.final_state)) < 1e-12


def test_spectrum_distance_sees_a_shift(rng):
    # the shift moves the coefficient tr(E) / s by n delta / s
    for n in (2, 5, 8):
        e = rng.standard_normal((n, n))
        for delta in (1e-9, 1e-6, 1e-3, 1.0):
            shifted = e + delta * np.eye(n)
            s = max(np.linalg.norm(e), np.linalg.norm(shifted))
            assert spectrum_distance(e, shifted) >= delta / s


def test_spectrum_distance_is_scale_invariant(rng):
    for n in (1, 3, 6):
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        d = spectrum_distance(a, b)
        for c in (1e-8, 3.0, 1e6):
            assert abs(spectrum_distance(c * a, c * b) - d) <= 1e-12 * d
    assert spectrum_distance(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


def test_spectrum_distance_rejects_different_sizes():
    with pytest.raises(ValueError):
        spectrum_distance(np.eye(3), np.eye(4))
    with pytest.raises(ValueError):
        spectrum_distance(np.ones(3), np.ones(3))


def test_normality_field_matches_oracle_bit_for_bit(rng, monkeypatch):
    fields = []
    integrate = engine.integrate

    def capture(field, y0, horizon, config, jacobian=None):
        fields.append(field)
        return integrate(field, y0, horizon, config, jacobian=jacobian)

    monkeypatch.setattr(engine, "integrate", capture)
    for n in range(2, 11):
        normality_flow(np.eye(n), horizon=1e-3)
        for _ in range(20):
            x = rng.standard_normal(n * n)
            assert np.array_equal(fields[-1](x), _field_oracle(n)(x))


def test_normality_jacobian_matches_central_differences(rng, monkeypatch):
    jacobians = []
    integrate = engine.integrate

    def capture(field, y0, horizon, config, jacobian=None):
        jacobians.append(jacobian)
        return integrate(field, y0, horizon, config, jacobian=jacobian)

    monkeypatch.setattr(engine, "integrate", capture)
    for n in range(2, 11):
        normality_flow(np.eye(n), horizon=1e-3)
        field, h = _field_oracle(n), 1e-5
        for _ in range(3):
            x = rng.standard_normal(n * n)
            jac = jacobians[-1](x)
            fd = np.array([(field(x + h * u) - field(x - h * u)) / (2 * h) for u in np.eye(n * n)]).T
            # the field is cubic: the central quotient is off by h^2 times its third derivative
            assert np.abs(jac - fd).max() <= 1e-7 * np.abs(jac).max(), n


def test_normality_flow_matches_oracle_trajectory(rng):
    # the explicit oracle run is the flow's run bit for bit up to the
    # stiffness switch; on the tail, where the flow takes the Radau IIA step,
    # both runs agree within their tolerances
    e0 = rng.standard_normal((5, 5))
    traj, _ = normality_flow(e0, horizon=40.0)
    ref = engine.integrate(_field_oracle(5), e0.ravel(), 40.0, engine.IntegratorConfig(fixedpoint_norm=1e-12))
    assert traj.stiff_at is not None and ref.stiff_at is None
    n = traj.n_accepted_dop853 + 1
    assert traj.times[n - 1] == traj.stiff_at
    assert np.array_equal(traj.times[:n], ref.times[:n])
    assert np.array_equal(traj.states[:n], ref.states[:n])
    assert traj.final_time == ref.final_time == 40.0
    assert np.linalg.norm(traj.final_state - ref.final_state) <= 1e-9 * np.linalg.norm(ref.final_state)
    assert traj.n_accepted < ref.n_accepted / 2


def test_spectrum_distance_handles_collisions():
    a = np.diag([1.0, 1.0, 2.0])
    assert spectrum_distance(a, a) < 1e-14
    b = np.diag([1.0, 2.0, 1.0])
    assert spectrum_distance(a, b) < 1e-14


def test_normality_defect_stack_matches_single(rng):
    for m in (2, 5, 8):
        e = rng.standard_normal((3, 4, m, m))
        stacked = normality_defect(e)
        assert stacked.shape == (3, 4)
        single = [[normality_defect(e[i, j]) for j in range(4)] for i in range(3)]
        assert isinstance(single[0][0], float)
        assert np.array_equal(stacked, single)
        # the single value is the Frobenius norm np.linalg.norm takes
        assert single[0][0] == float(np.linalg.norm(e[0, 0] @ e[0, 0].T - e[0, 0].T @ e[0, 0]))
