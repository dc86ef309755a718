import numpy as np

from pluriflow import engine
from pluriflow.normality import (
    normality_defect,
    normality_flow,
    normality_report,
    spectrum_distance,
)


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
    assert drift < 1e-6
    defects = [normality_defect(decode(x)) for x in traj.states]
    assert all(b <= a + 1e-9 for a, b in zip(defects, defects[1:]))
    assert defects[-1] < 1e-8


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
