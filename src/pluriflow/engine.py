"""Adaptive ODE infrastructure shared by all flows.

Dormand-Prince 5(4) embedded pair with PI step-size control, quartic dense
output, and terminal-event detection (horizon, fixed point, blow-up with its
extinction time in closed form, step underflow, non-finite field).  A trial
step makes six field calls (first same as last), and a retry after a
rejected trial starts from the field at the current state.  There is no
norm-conserving option: a flow keeps a norm through a field tangent to its
sphere.  The engine is dimension-agnostic: clients encode their state as a
flat real vector and own the decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "BlowupFit",
    "integrate",
    "normalize_projection",
    "HORIZON",
    "FIXED_POINT",
    "BLOWUP",
    "STEP_UNDERFLOW",
    "NONFINITE",
]

HORIZON = "HORIZON"
FIXED_POINT = "FIXED_POINT"
BLOWUP = "BLOWUP"
STEP_UNDERFLOW = "STEP_UNDERFLOW"
NONFINITE = "NONFINITE"  # the field at the start, or a trial's error before the step collapsed, was not finite

# Dormand-Prince 5(4) tableau (FSAL, 7 stages; the fields are autonomous, so
# the stage times are not needed).  _A[6] holds the fifth-order weights.
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Quartic dense-output polynomial coefficients (Shampine's interpolant).
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04  # PI stabilization exponent
_EXPO = 0.2 - 0.75 * _BETA
_FIXEDPOINT_SUSTAIN = 10  # consecutive accepted steps with |f| below fixedpoint_norm
_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 1_000_000  # accepted plus rejected trials before integrate raises
# |y| at which a run ends on BLOWUP.  A cubic flow's steps underflow not far
# above it (y' = y^3 from 1 ends at STEP_UNDERFLOW at |y| ~ 2.2e6), and the
# extinction time is read off the state here in closed form.
_BLOWUP_NORM = 1e6


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    fixedpoint_norm: float = 0.0  # 0 disables fixed-point detection
    sample_times: np.ndarray | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class BlowupFit:
    t_est: float  # extinction time T
    exponent: float  # p in |y| ~ (T - t)^(-p); both inf for growth no faster than linear


@dataclass
class Trajectory:
    """Time-stamped states plus integration metadata; the run ended on
    terminal_event at final_time."""

    times: np.ndarray
    states: np.ndarray
    terminal_event: str
    n_accepted: int = 0
    n_rejected: int = 0
    blowup: BlowupFit | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def normalize_projection(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Remove the radial component of f at x so the Euclidean norm is conserved."""
    nx2 = float(np.dot(x, x))
    if nx2 == 0.0:
        raise ValueError("cannot project at the zero state")
    return f - (np.dot(f, x) / nx2) * x


def _rms(v):
    # np.mean's pairwise sum, without its overhead; a dot product would add
    # in another order and change the error norm's last bits
    return math.sqrt(float(np.add.reduce(v * v, axis=None)) / v.size)


def _norm(v):
    # np.linalg.norm of a vector, without its overhead: the same ddot and sqrt
    return math.sqrt(v.dot(v))


def _initial_step(field_fn, x0, f0, rel_tol, abs_tol, horizon):
    scale = abs_tol + rel_tol * np.abs(x0)
    d0, d1 = _rms(x0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = x0 + h0 * f0
    f1 = field_fn(y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, horizon)


def _dopri_step(field_fn, y, f, h, k):
    """One Dormand-Prince trial step of size h from y, where f = field_fn(y).

    Fills the stages k (7, n) in place with six field calls.  The last stage
    is taken at the fifth-order end point, which is returned, so k[6] is the
    field there (FSAL).
    """
    k[0] = f
    kt = k.T
    for s in range(1, 7):
        y1 = y + h * kt[:, :s].dot(_A[s])
        k[s] = field_fn(y1)
    return y1


def integrate(field_fn, x0, horizon: float, config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate y' = field_fn(y) from t=0 to the horizon or a terminal event."""
    cfg = config or IntegratorConfig()
    y = np.array(x0, dtype=float)
    t = 0.0
    f = field_fn(y)

    samples = None if cfg.sample_times is None else np.sort(np.asarray(cfg.sample_times, dtype=float))
    s_ptr = 0

    rec_t, rec_y = [], []

    def record(tt, yy):  # no state is changed in place once made, so none is copied
        rec_t.append(tt)
        rec_y.append(yy)

    if samples is None:
        record(t, y)
    else:
        while s_ptr < samples.size and samples[s_ptr] <= t:
            record(samples[s_ptr], y)
            s_ptr += 1

    n_acc = n_rej = 0
    fp_count = 0
    blow = None
    # a start at a fixed point ends at once (idempotent re-integration), and a
    # start at a non-finite field, where no step size can be chosen, on NONFINITE
    event = None if np.isfinite(f).all() else NONFINITE
    if event is None and _norm(f) < cfg.fixedpoint_norm:
        event = FIXED_POINT
    h = _initial_step(field_fn, y, f, cfg.rel_tol, cfg.abs_tol, horizon) if event is None else 0.0
    facold = 1e-4
    rejected_last = False
    nonfinite_last = False  # the latest trial was rejected with a non-finite error
    k = np.empty((7, y.size))  # dense output reads an accepted step's stages here before the next trial
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol

    while event is None and t < horizon:
        if n_acc + n_rej >= _MAX_STEPS:
            raise RuntimeError(f"max_steps={_MAX_STEPS} exceeded at t={t:g}")
        h = min(h, horizon - t)
        final_step = h >= horizon - t
        if not h >= 16 * _EPS * max(abs(t), 1.0):  # a NaN step size ends the run too
            event = NONFINITE if nonfinite_last or math.isnan(h) else STEP_UNDERFLOW
            break

        y1 = _dopri_step(field_fn, y, f, h, k)
        scale = np.maximum(np.abs(y), np.abs(y1))
        scale *= rel_tol
        scale += abs_tol
        err = _rms(h * k.T.dot(_E) / scale)

        if not err <= 1.0:  # also rejects a NaN error from a non-finite trial state
            n_rej += 1
            h *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            rejected_last = True
            nonfinite_last = not math.isfinite(err)
            continue

        # accepted
        n_acc += 1
        t_old, y_old, h_old = t, y, h
        t = horizon if final_step else t_old + h_old
        y = y1
        f = k[6].copy()  # a rejected next trial overwrites k[6]; its retry starts from f

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * err**-_EXPO * facold**_BETA)
        if rejected_last:
            factor = min(factor, 1.0)
        h = h_old * max(_MIN_FACTOR, factor)
        facold = max(err, 1e-4)
        rejected_last = nonfinite_last = False

        if samples is None:
            record(t, y)
        else:
            while s_ptr < samples.size and samples[s_ptr] <= t + 1e-14 * max(1.0, abs(t)):
                th = (samples[s_ptr] - t_old) / h_old
                q = k.T @ _P
                p = np.array([th, th**2, th**3, th**4])
                record(samples[s_ptr], y_old + h_old * (q @ p))
                s_ptr += 1

        if _norm(y) > _BLOWUP_NORM:
            event = BLOWUP
            blow = _blowup_time(field_fn, t, y, f)
        elif cfg.fixedpoint_norm > 0:
            fp_count = fp_count + 1 if _norm(f) < cfg.fixedpoint_norm else 0
            if fp_count >= _FIXEDPOINT_SUSTAIN:
                event = FIXED_POINT

    if not rec_t or abs(rec_t[-1] - t) > 1e-14 * max(1.0, abs(t)):
        record(t, y)
    return Trajectory(
        times=np.array(rec_t),
        states=np.array(rec_y),
        terminal_event=event or HORIZON,
        n_accepted=n_acc,
        n_rejected=n_rej,
        blowup=blow,
    )


def _blowup_time(field_fn, t, y, f) -> BlowupFit:
    """Extinction time from the state y at time t, where f = field_fn(y).

    For a field homogeneous of degree q > 1, a self-similar solution
    |y| ~ (T - t)^(-1/(q-1)) has T - t = |y|^2 / ((q - 1) <f(y), y>).  One
    more field call measures q from <f(2y), y> = 2^q <f(y), y>, which is exact
    for polynomial fields.  <f, y> <= 0 or q <= 1 means no finite-time
    blow-up: T = inf.
    """
    g = float(f.dot(y))
    ratio = float(field_fn(2.0 * y).dot(y)) / g if g > 0 else 0.0
    q = math.log2(ratio) if ratio > 2.0 else 1.0  # also catches a NaN ratio
    if q <= 1.0:
        return BlowupFit(t_est=math.inf, exponent=math.inf)
    return BlowupFit(t_est=t + float(y.dot(y)) / ((q - 1.0) * g), exponent=1.0 / (q - 1.0))
