import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from pluriflow import engine


def test_zero_field_reaches_horizon():
    traj = engine.integrate(lambda y: np.zeros_like(y), np.array([1.0, 2.0]), 5.0)
    assert traj.terminal_event == engine.HORIZON
    assert traj.final_time == 5.0
    assert_allclose(traj.final_state, [1.0, 2.0])


def test_times_strictly_increasing_and_single_terminal():
    traj = engine.integrate(lambda y: -y, np.array([1.0]), 3.0)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.terminal_event == engine.HORIZON
    assert traj.final_time == 3.0


def test_blowup_detection_quadratic():
    traj = engine.integrate(lambda y: y * y, np.array([1.0]), 10.0)
    assert traj.terminal_event == engine.BLOWUP
    assert abs(traj.blowup.t_est - 1.0) < 1e-3
    assert abs(traj.blowup.exponent - 1.0) < 0.05


def test_fixed_point_detection_linear_decay():
    cfg = engine.IntegratorConfig(fixedpoint_norm=1e-8)
    traj = engine.integrate(lambda y: -y, np.array([1.0]), 100.0, cfg)
    assert traj.terminal_event == engine.FIXED_POINT
    assert abs(traj.final_state[0]) < 1e-7


def test_fixed_point_idempotent():
    cfg = engine.IntegratorConfig(fixedpoint_norm=1e-8)
    traj = engine.integrate(lambda y: -y, np.array([1.0]), 100.0, cfg)
    again = engine.integrate(lambda y: -y, traj.final_state, 100.0, cfg)
    assert again.terminal_event == engine.FIXED_POINT
    assert again.final_time == 0.0


def test_step_underflow_on_derivative_singularity():
    # y' = -1/(2y) reaches y = 0 at t = 1 with unbounded slope
    def f(y):
        return np.array([-0.5 / y[0]])

    traj = engine.integrate(f, np.array([1.0]), 2.0)
    assert traj.terminal_event == engine.STEP_UNDERFLOW
    assert abs(traj.final_time - 1.0) < 1e-3


def test_nan_field_rejected_not_accepted():
    # a field that turns NaN past y = 0.5 must stop on the last finite state
    def f(y):
        return np.array([np.nan if y[0] > 0.5 else 1.0])

    traj = engine.integrate(f, np.array([0.0]), 2.0)
    assert traj.terminal_event == engine.NONFINITE
    assert np.all(np.isfinite(traj.states))
    assert 0.5 - 1e-9 < traj.final_state[0] <= 0.5


def test_max_steps_raises(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_STEPS", 5)
    with pytest.raises(RuntimeError):
        engine.integrate(lambda y: np.sin(y) + 1.2, np.array([0.0]), 1e6)


def test_convergence_order_is_eight():
    def f(y):
        return -y

    errs = []
    hs = np.array([1.0, 0.5, 0.25, 0.125])
    k = np.empty((13, 1))
    for h in hs:
        y = np.array([1.0])
        for _ in range(round(2.0 / h)):
            y, _ = engine._dop853_step(f, y, f(y), h, k)
        errs.append(abs(y[0] - np.exp(-2.0)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 8.0) < 0.3


def test_dop853_step_is_bitwise_the_stage_expression():
    # the stage inputs y + h * A[s] k, each formed as a new array, give the
    # step and its twelfth stage input the same bits as the in-place form
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))

    def f(y):
        return m.dot(np.sin(y)) - 0.3 * y * y

    def reference(y, h):
        k = np.empty((13, y.size))
        k[0] = f(y)
        for s in range(1, 12):
            z = y + h * engine._A[s].dot(k[:s])
            k[s] = f(z)
        y1 = y + h * engine._B.dot(k[:12])
        k[12] = f(y1)
        return y1, z, k

    for h in (0.37, 1e-3):
        y = rng.standard_normal(6)
        k = np.empty((13, 6))
        y1, z12 = engine._dop853_step(f, y, f(y), h, k)
        y1_ref, z12_ref, k_ref = reference(y, h)
        assert np.array_equal(y1.view(np.uint64), y1_ref.view(np.uint64))
        assert np.array_equal(z12.view(np.uint64), z12_ref.view(np.uint64))
        assert np.array_equal(k.view(np.uint64), k_ref.view(np.uint64))


def test_tableau_equals_scipys_dop853():
    ref = dop853_coefficients
    assert all(np.array_equal(engine._A[s], ref.A[s, :s]) for s in range(12))
    assert np.array_equal(engine._B, ref.B)
    # scipy's estimators carry a thirteenth, zero weight for the FSAL stage
    assert np.array_equal(engine._E5, ref.E5[:12]) and ref.E5[12] == 0.0
    assert np.array_equal(engine._E3, ref.E3[:12]) and ref.E3[12] == 0.0


def test_dense_output_accuracy_and_times():
    samples = np.linspace(0.0, 4.0, 17)
    cfg = engine.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, sample_times=samples)
    traj = engine.integrate(lambda y: -y, np.array([1.0]), 4.0, cfg)
    assert_allclose(traj.times, samples)
    assert max(abs(traj.states[i, 0] - np.exp(-t)) for i, t in enumerate(samples)) < 1e-8


def test_against_scipy_oracle():
    def f(y):
        return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])

    y0 = np.array([1.2, 0.0])
    cfg = engine.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    traj = engine.integrate(f, y0, 20.0, cfg)
    ref = solve_ivp(lambda t, y: f(y), (0, 20.0), y0, rtol=1e-12, atol=1e-13, dense_output=True)
    assert np.abs(traj.final_state - ref.sol(20.0)).max() < 1e-8


def test_normalize_projection_radial_and_tangential():
    x = np.array([3.0, 4.0])
    assert_allclose(engine.normalize_projection(2.0 * x, x), 0.0, atol=1e-15)
    tang = np.array([-4.0, 3.0])
    assert_allclose(engine.normalize_projection(tang, x), tang)
    with pytest.raises(ValueError):
        engine.normalize_projection(x, np.zeros(2))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        engine.IntegratorConfig(rel_tol=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_field_at_start_ends_on_nonfinite(value):
    calls = 0

    def field(y):
        nonlocal calls
        calls += 1
        if calls > 50:
            raise RuntimeError("the engine keeps retrying a step from a non-finite field")
        return np.full_like(y, value)

    traj = engine.integrate(field, np.ones(3), 1.0)
    assert traj.terminal_event == engine.NONFINITE
    assert traj.final_time == 0.0 and traj.n_accepted == 0
    assert calls <= 7


def test_blowup_time_of_cubic_growth():
    # y' = y^3 from 1: |y| = (1 - 2t)^(-1/2), the exponent the bracket flows produce
    traj = engine.integrate(lambda y: y**3, np.array([1.0]), 10.0)
    assert traj.terminal_event == engine.BLOWUP
    assert abs(traj.blowup.t_est - 0.5) < 1e-9
    assert traj.blowup.exponent == 0.5


def test_cubic_blowup_rejects_few_trials():
    # each step must be shorter than the last, which a controller that sees
    # only the latest error learns by rejecting every other trial
    traj = engine.integrate(lambda y: y**3, np.array([1.0]), 10.0)
    assert traj.terminal_event == engine.BLOWUP
    assert traj.n_rejected <= 0.05 * (traj.n_accepted + traj.n_rejected)


def test_linear_growth_has_no_blowup_time():
    traj = engine.integrate(lambda y: y, np.array([1.0]), 100.0)
    assert traj.terminal_event == engine.BLOWUP
    assert traj.blowup.t_est == np.inf


def test_states_do_not_alias_the_callers_x0():
    x0 = np.array([1.0, 2.0])
    traj = engine.integrate(lambda y: -y, x0, 1.0)
    x0[:] = 7.0
    assert_allclose(traj.states[0], [1.0, 2.0])


def _van_der_pol(y):
    # mu = 10: the fast transitions reject trials at these tolerances
    return np.array([y[1], 10.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])


def test_dense_output_across_rejected_steps():
    # trials get rejected between samples, and each sample must still be the
    # end point of an accepted step that landed on it
    samples = np.linspace(0.0, 20.0, 21)
    cfg = engine.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, sample_times=samples)
    traj = engine.integrate(_van_der_pol, np.array([2.0, 0.0]), 20.0, cfg)
    ref = solve_ivp(lambda t, y: _van_der_pol(y), (0, 20.0), [2.0, 0.0], method="DOP853", t_eval=samples,
                    rtol=1e-13, atol=1e-15)
    assert traj.n_rejected > 0
    assert np.array_equal(traj.times, samples)
    assert np.abs(traj.states - ref.y.T).max() < 1e-7


def test_retry_starts_from_the_field_at_the_current_state():
    # trials get rejected here; a retry that starts from the field at the
    # rejected end point instead of at y loses over two orders of accuracy
    cfg = engine.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    traj = engine.integrate(_van_der_pol, np.array([2.0, 0.0]), 20.0, cfg)
    ref = solve_ivp(lambda t, y: _van_der_pol(y), (0, 20.0), [2.0, 0.0], method="DOP853", rtol=1e-13, atol=1e-15)
    assert traj.n_rejected > 0
    assert np.abs(traj.final_state - ref.y[:, -1]).max() < 1e-8


@pytest.mark.parametrize(
    "field, x0, event, fixedpoint_norm",
    [
        (_van_der_pol, [2.0, 0.0], engine.HORIZON, 0.0),
        # the van der Pol part rejects trials before the cubic part blows up at t = 10
        (lambda y: np.append(_van_der_pol(y[:2]), 0.05 * y[2] ** 3), [2.0, 0.0, 1.0], engine.BLOWUP, 0.0),
        (lambda y: np.full_like(y, np.nan), [1.0], engine.NONFINITE, 0.0),
        (lambda y: 0.0 * y, [1.0], engine.FIXED_POINT, 1e-12),
    ],
    ids=["horizon", "blowup", "nonfinite_start", "fixed_point_start"],
)
def test_twelve_field_calls_per_trial(field, x0, event, fixedpoint_norm):
    calls = [0]

    def f(y):
        calls[0] += 1
        return field(y)

    cfg = engine.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, fixedpoint_norm=fixedpoint_norm)
    traj = engine.integrate(f, np.array(x0), 20.0, cfg)
    trials = traj.n_accepted + traj.n_rejected
    stepped = event in (engine.HORIZON, engine.BLOWUP)  # the other runs end at the start
    assert traj.terminal_event == event and (traj.n_rejected > 0 if stepped else trials == 0)
    # the field at x0, one call to pick the first step, twelve per trial, and
    # one more to measure the degree on BLOWUP
    assert calls[0] == 1 + stepped + 12 * trials + (event == engine.BLOWUP)
    assert traj.n_field_calls == calls[0]


# --- the stiffness test and the Radau IIA step ---------------------------------

_MU_STIFF = 1e3


def _van_der_pol_stiff(y):
    return np.array([y[1], _MU_STIFF * (1.0 - y[0] ** 2) * y[1] - y[0]])


def _van_der_pol_stiff_jacobian(y):
    return np.array([[0.0, 1.0], [-2.0 * _MU_STIFF * y[0] * y[1] - 1.0, _MU_STIFF * (1.0 - y[0] ** 2)]])


def _normality_field_and_jacobian(e0):
    from pluriflow import normality

    captured = {}

    def capture(field, x0, horizon, config, jacobian=None):
        captured["field"], captured["jacobian"] = field, jacobian
        return engine.Trajectory(times=np.zeros(1), states=x0[None, :], terminal_event=engine.HORIZON)

    integrate = engine.integrate
    engine.integrate = capture
    try:
        normality.normality_flow(e0, horizon=1.0)
    finally:
        engine.integrate = integrate
    return captured["field"], captured["jacobian"]


def test_radau_tableau_equals_scipys():
    from scipy.integrate._ivp import radau

    assert np.array_equal(engine._RADAU_C, radau.C) and np.array_equal(engine._RADAU_E, radau.E)
    assert engine._MU_REAL == radau.MU_REAL and engine._MU_COMPLEX == radau.MU_COMPLEX
    assert np.array_equal(engine._RADAU_T, radau.T) and np.array_equal(engine._RADAU_TI, radau.TI)
    assert np.array_equal(engine._RADAU_TI_COMPLEX, radau.TI_COMPLEX)
    assert np.array_equal(engine._RADAU_P, radau.P) and engine._NEWTON_MAXITER == radau.NEWTON_MAXITER


def test_stiff_van_der_pol_switches_and_matches_scipy_radau():
    # mu = 1e3 from (2, 0): the slow branch is stiff at once, and the run
    # crosses the first fast transition, near t = 807, by t = 1000
    y0 = np.array([2.0, 0.0])
    traj = engine.integrate(_van_der_pol_stiff, y0, 1000.0, jacobian=_van_der_pol_stiff_jacobian)
    assert traj.terminal_event == engine.HORIZON and traj.stiff_at is not None and traj.stiff_at < 1.0
    assert traj.n_accepted_dop853 < 100 < traj.n_accepted_radau
    ref = solve_ivp(lambda t, y: _van_der_pol_stiff(y), (0, 1000.0), y0, method="Radau",
                    jac=lambda t, y: _van_der_pol_stiff_jacobian(y), rtol=1e-10, atol=1e-12)
    assert np.all(np.abs(traj.final_state - ref.y[:, -1]) <= 1e-8 * np.abs(ref.y[:, -1]))


def test_stiff_normality_tail_matches_scipy_radau():
    # the 5x5 normality flow turns stiff near its normal limit: from the state
    # where the test fired, the tail agrees with scipy's Radau
    e0 = np.random.default_rng(8).standard_normal((5, 5))
    field, jacobian = _normality_field_and_jacobian(e0)
    cfg = engine.IntegratorConfig(fixedpoint_norm=1e-12)
    traj = engine.integrate(field, e0.ravel(), 40.0, cfg, jacobian=jacobian)
    assert traj.stiff_at is not None and traj.n_accepted_radau > 0
    start = int(np.searchsorted(traj.times, traj.stiff_at))
    ref = solve_ivp(lambda t, y: field(y), (traj.stiff_at, 40.0), traj.states[start], method="Radau",
                    jac=lambda t, y: jacobian(y), rtol=1e-12, atol=1e-14)
    assert np.linalg.norm(traj.final_state - ref.y[:, -1]) <= 1e-8 * np.linalg.norm(ref.y[:, -1])


def test_jacobian_run_is_the_explicit_run_up_to_the_switch():
    for field, jacobian, y0, horizon in [
        (_van_der_pol_stiff, _van_der_pol_stiff_jacobian, np.array([2.0, 0.0]), 2.0),
        (*_normality_field_and_jacobian(np.random.default_rng(8).standard_normal((5, 5))),
         np.random.default_rng(8).standard_normal((5, 5)).ravel(), 40.0),
    ]:
        plain = engine.integrate(field, y0, horizon)
        stiff = engine.integrate(field, y0, horizon, jacobian=jacobian)
        assert plain.stiff_at is None and plain.n_accepted_radau == 0
        n = int(np.searchsorted(stiff.times, stiff.stiff_at)) + 1  # the rows up to the switch
        assert stiff.times[n - 1] == stiff.stiff_at and n == stiff.n_accepted_dop853 + 1
        assert np.array_equal(stiff.times[:n], plain.times[:n])
        assert np.array_equal(stiff.states[:n], plain.states[:n])


def test_stiffness_test_reads_the_twelfth_stage_input_of_the_step(monkeypatch):
    # the step's twelfth stage input is the stiffness test's former
    # z12 = y + h A[11] k[:11], recomputed after the step, bit for bit; a run
    # that reads the recomputed value is the same run
    step = engine._dop853_step
    compared = [0]

    def old_expression(field_fn, y, f, h, k):
        y1, z12 = step(field_fn, y, f, h, k)
        z12_old = y + h * engine._A[11].dot(k[:11])
        assert np.array_equal(z12.view(np.uint64), z12_old.view(np.uint64))
        compared[0] += 1
        return y1, z12_old

    e0 = np.random.default_rng(8).standard_normal((5, 5))
    for field, jacobian, y0, horizon in [
        (_van_der_pol_stiff, _van_der_pol_stiff_jacobian, np.array([2.0, 0.0]), 1000.0),
        (*_normality_field_and_jacobian(e0), e0.ravel(), 40.0),
    ]:
        kept = engine.integrate(field, y0, horizon, jacobian=jacobian)
        monkeypatch.setattr(engine, "_dop853_step", old_expression)
        compared[0] = 0
        old = engine.integrate(field, y0, horizon, jacobian=jacobian)
        monkeypatch.setattr(engine, "_dop853_step", step)
        assert kept.stiff_at is not None and kept.stiff_at == old.stiff_at
        assert compared[0] >= kept.n_accepted_dop853 > 0  # every DOP853 trial
        assert np.array_equal(kept.times.view(np.uint64), old.times.view(np.uint64))
        assert np.array_equal(kept.states.view(np.uint64), old.states.view(np.uint64))
        assert (kept.terminal_event, kept.n_accepted, kept.n_rejected, kept.n_field_calls) == (
            old.terminal_event, old.n_accepted, old.n_rejected, old.n_field_calls)


def _never_called(y):
    raise AssertionError("the stiffness test fired")


def test_jacobian_run_is_bit_for_bit_when_the_test_never_fires(rng):
    from pluriflow import nilflow
    from pluriflow.sampling import random_two_step_skt

    # the Jordan block's collapse is algebraic, never stiff
    jordan = np.array([0.0, 1.0, 0.0, 0.0])
    field = _normality_field_and_jacobian(jordan.reshape(2, 2))[0]
    # a unit-norm 2-step flow to its soliton
    mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2)
    flow = nilflow.NilFlow(nilflow.NilpotentSplitting.from_bracket(mu, frame), normalized=True)
    x0 = flow.encode(mu)
    for f, y0, horizon, cfg in [
        (field, jordan, 1e16, engine.IntegratorConfig()),
        (flow.field, x0 / np.linalg.norm(x0), 1e3, engine.IntegratorConfig(fixedpoint_norm=1e-10)),
    ]:
        plain = engine.integrate(f, y0, horizon, cfg)
        stiff = engine.integrate(f, y0, horizon, cfg, jacobian=_never_called)
        assert stiff.stiff_at is None and stiff.n_accepted_radau == 0
        assert np.array_equal(stiff.times, plain.times) and np.array_equal(stiff.states, plain.states)
        assert (stiff.terminal_event, stiff.n_accepted, stiff.n_rejected, stiff.n_field_calls) == (
            plain.terminal_event, plain.n_accepted, plain.n_rejected, plain.n_field_calls)


@pytest.mark.parametrize("horizon, samples", [(1000.0, None), (500.0, np.linspace(0.0, 500.0, 11))])
def test_field_calls_are_counted_through_the_radau_step(horizon, samples):
    calls = [0]

    def f(y):
        calls[0] += 1
        return _van_der_pol_stiff(y)

    cfg = engine.IntegratorConfig(sample_times=samples)
    traj = engine.integrate(f, np.array([2.0, 0.0]), horizon, cfg, jacobian=_van_der_pol_stiff_jacobian)
    assert traj.n_accepted_radau > 0 and traj.n_rejected > 0
    assert traj.n_field_calls == calls[0]
    if samples is not None:
        assert np.array_equal(traj.times, samples)


def test_radau_step_keeps_the_terminal_events():
    # y' = -y + y^3 / 100 - 1000 (y - z) couples a stiff mode to a slow cubic:
    # the run switches, then blows up at the slow mode's extinction time
    def f(y):
        return np.array([-1000.0 * (y[0] - y[1]), 0.05 * y[1] ** 3])

    def jac(y):
        return np.array([[-1000.0, 1000.0], [0.0, 0.15 * y[1] ** 2]])

    traj = engine.integrate(f, np.array([0.0, 1.0]), 100.0, jacobian=jac)
    assert traj.stiff_at is not None and traj.terminal_event == engine.BLOWUP
    assert abs(traj.blowup.t_est - 10.0) < 1e-6
    # and a stiff decay to a fixed point ends on FIXED_POINT
    cfg = engine.IntegratorConfig(fixedpoint_norm=1e-10)
    decay = engine.integrate(lambda y: -np.array([1000.0, 1.0]) * y, np.ones(2), 1e15, cfg,
                             jacobian=lambda y: np.diag([-1000.0, -1.0]))
    assert decay.stiff_at is not None and decay.terminal_event == engine.FIXED_POINT
    assert np.abs(decay.final_state).max() < 1e-9
