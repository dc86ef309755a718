"""Adaptive ODE infrastructure shared by all flows.

Dormand-Prince 8(5,3) (DOP853, Hairer, Norsett & Wanner, Solving ODEs I,
II.10) with PI step-size control and terminal-event detection (horizon, fixed
point, blow-up with its extinction time in closed form, step underflow,
non-finite field).  From the second accepted step on, the step factor is the
smaller of the PI factor and Gustafsson's predictive factor
0.9 (h / h_acc) (err_acc / err^2)^(1/8), h_acc and err_acc the last accepted
step and its error (the RADAU5 controller, Hairer & Wanner, Solving ODEs II,
IV.8): near a blow-up, where each step must be shorter than the last, it
shrinks the steps before a trial is rejected.  A trial step makes twelve
field calls (first same as last), and a retry after a rejected trial starts
from the field at the current state.  A run given sample times lands a step
on each of them instead of interpolating.  There is no norm-conserving
option: a flow keeps a norm through a field tangent to its sphere.  The
engine is dimension-agnostic: clients encode their state as a flat real
vector and own the decoding.

A caller that passes the field's Jacobian gets Hairer's stiffness test on
every accepted DOP853 step (Solving ODEs II, IV.2): h lambda = h |f(y1) -
k12| / |y1 - z12|, z12 the input of the twelfth stage, is an estimate of h
times the dominant eigenvalue, and fifteen values above 6.1 (the edge of
DOP853's stability region; the count starts again after six in a row below
it) switch the run for good to the L-stable Radau IIA step of order 5 with
simplified Newton (Solving ODEs II, IV.8).  That step keeps the controller,
with the exponents of its third-order error estimate, the terminal events and
the sample landing.  Without a Jacobian, or while the test has not fired, a
run is the DOP853 run bit for bit.  Field calls are counted as they are made,
since the Newton iterations of a Radau trial vary in number.
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

# DOP853 tableau (FSAL, 12 stages; the fields are autonomous, so the stage
# times are not needed).  _A[s] holds stage s's weights, _B the eighth-order
# weights, and _E5, _E3 the fifth- and third-order error estimators.
_A = [
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]),
    np.array([2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
              9.24834003261792003115737966543e-1]),
    np.array([3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
              1.25467687566822425016691814123e-1]),
    np.array([3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
              -1.7578125e-2]),
    np.array([3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
              1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
              8.27378916381402288758473766002e-3]),
    np.array([6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
              -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
              2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]),
    np.array([4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
              -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
              1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
              -2.03312017085086261358222928593e-2]),
    np.array([-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
              1.09143734899672957818500254654, -8.14978701074692612513997267357,
              -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
              2.49360555267965238987089396762, -3.0467644718982195003823669022]),
    np.array([2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
              -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
              2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
              -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
              6.43392746015763530355970484046e-1]),
]
_B = np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
               1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2])
_E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290, 0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1])
_E3 = _B.copy()  # _B minus the third-order weights
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E53 = np.stack([_E5, _E3])

# Radau IIA of order 5 (Hairer & Wanner, Solving ODEs II, IV.8), in scipy's
# form (scipy/integrate/_ivp/radau.py): _RADAU_C are the stage times.  The
# inverse of its matrix has the real eigenvalue _MU_REAL and the pair
# _MU_COMPLEX and its conjugate; _RADAU_TI takes the stage increments to that
# eigenbasis (real form) and _RADAU_T back, so a Newton iteration solves one
# real and one complex n x n system.  _RADAU_E gives the third-order error
# estimate, and _RADAU_P the collocation polynomial, whose extrapolation from
# the last step starts the next step's Newton iteration.
_S6 = 6**0.5
_RADAU_C = np.array([(4 - _S6) / 10, (4 + _S6) / 10, 1.0])
_RADAU_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1.0]) / 3
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = 3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3)) - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
_RADAU_T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1.0, 1.0, 0.0]])
_RADAU_TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
_RADAU_TI_COMPLEX = _RADAU_TI[1] + 1j * _RADAU_TI[2]
_RADAU_P = np.array([
    [13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6],
    [13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6],
    [1 / 3, -8 / 3, 10 / 3]])
_NEWTON_MAXITER = 6

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04  # PI stabilization exponent
_ORDER_EXPO = 1 / 8  # the error estimate is O(h^8)
_EXPO = _ORDER_EXPO - 0.75 * _BETA
# Hairer's stiffness test: h lambda above _STIFF_HLAMBDA on _STIFF_SUSTAIN
# accepted steps, the count reset by _NONSTIFF_RESET steps below it
_STIFF_HLAMBDA = 6.1
_STIFF_SUSTAIN = 15
_NONSTIFF_RESET = 6
# the error a Radau trial reports when its Newton iteration failed on finite
# values: the rejection shrinks h by _MIN_FACTOR
_NEWTON_FAILED = 1e8
_FIXEDPOINT_SUSTAIN = 10  # consecutive accepted steps with |f| below fixedpoint_norm
_EPS = float(np.finfo(float).eps)
# floor of the error norms that the step factors divide by: a tiny error's
# square would underflow in the predictive factor
_ERR_FLOOR = 1e-4
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
    n_field_calls: int = 0  # counted at each call, the Radau step's Newton iterations included
    blowup: BlowupFit | None = None
    stiff_at: float | None = None  # the time the stiffness test switched the run to Radau IIA
    n_accepted_radau: int = 0  # of n_accepted, the Radau IIA steps

    @property
    def n_accepted_dop853(self) -> int:
        return self.n_accepted - self.n_accepted_radau

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def normalize_projection(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Remove the radial component of f at x so the Euclidean norm is conserved."""
    nx2 = float(x.dot(x))
    if nx2 == 0.0:
        raise ValueError("cannot project at the zero state")
    return f - (f.dot(x) / nx2) * x


def _norm(v):
    # np.linalg.norm of a vector, without its overhead: the same ddot and sqrt
    return math.sqrt(v.dot(v))


def _rms(v):
    return _norm(v) / math.sqrt(v.size)


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
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXPO
    return min(100 * h0, h1, horizon)


def _dop853_step(field_fn, y, f, h, k):
    """One DOP853 trial step of size h from y, where f = field_fn(y).

    Fills the stages k (13, n) in place with twelve field calls: k[:12] are
    the stages, and k[12] is the field at the eighth-order end point (FSAL).
    Returns that end point and the twelfth stage's input, which the
    stiffness test reads.
    """
    k[0] = f
    for s in range(1, 12):
        t = _A[s].dot(k[:s])  # the stage input y + h A[s] k, in place
        t *= h
        t += y
        k[s] = field_fn(t)
    y1 = y + h * _B.dot(k[:12])
    k[12] = field_fn(y1)
    return y1, t


def _error_norm(k, h, scale):
    """Hairer's DOP853 error norm |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n),
    with e5 and e3 the two error estimates divided by scale."""
    e5, e3 = _E53.dot(k[:12]) / scale
    n5, n3 = float(e5.dot(e5)), float(e3.dot(e3))
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * scale.size)


class _RadauStep:
    """Trial steps of Radau IIA (order 5) with simplified Newton on the
    transformed system.  The Jacobian is kept across steps and evaluated anew
    after a step whose iteration converged slowly (more than two iterations at
    a rate above 1e-3) or before a retry of one that failed on a stale
    Jacobian; the two inverses of the Newton matrices are formed anew when h
    or the Jacobian changes."""

    def __init__(self, field_fn, jacobian, y, rel_tol, abs_tol):
        self.field_fn, self.jacobian = field_fn, jacobian
        # RADAU5's tolerances: the third-order estimate overstates the error
        # of the fifth-order step, so it is held to 0.1 rel_tol^(2/3)
        self.rel_tol = 0.1 * rel_tol ** (2 / 3)
        self.abs_tol = abs_tol * (self.rel_tol / rel_tol)
        self.newton_tol = max(10 * _EPS / self.rel_tol, min(0.03, self.rel_tol**0.5))
        self.jac, self.current_jac = jacobian(y), True
        self.h_inv = None  # the h of the inverses; None once they are stale
        self.z = None  # the last accepted step's stage increments (3, n), and its h
        self.h_last = 0.0
        self.n_calls = 0

    def _invert(self, h):
        if self.h_inv != h:
            eye = np.eye(self.jac.shape[0])
            self.inv_real = np.linalg.inv((_MU_REAL / h) * eye - self.jac)
            self.inv_complex = np.linalg.inv((_MU_COMPLEX / h) * eye - self.jac)
            self.h_inv = h

    def _newton(self, y, h, z, scale):
        """(converged, iterations, z, rate, finite) of the simplified Newton
        iteration on the stage increments z (3, n), y + z[i] the stage
        values, started at the given z."""
        w = _RADAU_TI.dot(z)
        stages = np.empty_like(z)
        dw = np.empty_like(z)
        dw_norm_old = rate = None
        for it in range(1, _NEWTON_MAXITER + 1):
            for i in range(3):
                stages[i] = self.field_fn(y + z[i])
            self.n_calls += 3
            if not np.isfinite(stages).all():
                return False, it, z, rate, False
            dw[0] = self.inv_real.dot(stages.T.dot(_RADAU_TI[0]) - (_MU_REAL / h) * w[0])
            dwc = self.inv_complex.dot(stages.T.dot(_RADAU_TI_COMPLEX) - (_MU_COMPLEX / h) * (w[1] + 1j * w[2]))
            dw[1], dw[2] = dwc.real, dwc.imag
            dw_norm = _rms((dw / scale).ravel())
            if dw_norm_old is not None:
                rate = dw_norm / dw_norm_old
                if rate >= 1 or rate ** (_NEWTON_MAXITER - it + 1) / (1 - rate) * dw_norm > self.newton_tol:
                    return False, it, z, rate, True
            w += dw
            z = _RADAU_T.dot(w)
            if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < self.newton_tol:
                return True, it, z, rate, True
            dw_norm_old = dw_norm
        return False, _NEWTON_MAXITER, z, rate, True

    def trial(self, y, f, h, rejected_last):
        """(y1, f1, err) of one trial step of size h from y, where f =
        field_fn(y).  err is NaN when a field value was not finite and
        _NEWTON_FAILED when the iteration failed; f1 = field_fn(y1) only
        when err <= 1, and then the step is taken as accepted."""
        if self.z is None:
            z0 = np.zeros((3, y.size))
        else:  # the last step's collocation polynomial at this step's stages
            x = 1.0 + (h / self.h_last) * _RADAU_C
            z0 = self.z.T.dot(_RADAU_P).dot(np.cumprod(np.tile(x, (3, 1)), axis=0)).T - self.z[-1]
        scale = self.abs_tol + self.rel_tol * np.abs(y)
        while True:
            self._invert(h)
            converged, iters, z, rate, finite = self._newton(y, h, z0, scale)
            if converged or self.current_jac:
                break
            self.jac, self.current_jac, self.h_inv = self.jacobian(y), True, None
        if not converged:
            return y, f, _NEWTON_FAILED if finite else math.nan
        y1 = y + z[-1]
        ze = z.T.dot(_RADAU_E) / h
        scale = np.maximum(np.abs(y), np.abs(y1))
        scale *= self.rel_tol
        scale += self.abs_tol
        e = self.inv_real.dot(f + ze)
        err = _rms(e / scale)
        if rejected_last and err > 1.0:  # Hairer's second estimate, which damps a stiff component of the first
            err = _rms(self.inv_real.dot(self.field_fn(y + e) + ze) / scale)
            self.n_calls += 1
        if not err <= 1.0:
            return y1, f, err
        f1 = self.field_fn(y1)
        self.n_calls += 1
        if not np.isfinite(f1).all():
            return y1, f, math.nan
        self.z, self.h_last = z, h
        if iters > 2 and rate > 1e-3:
            self.jac, self.current_jac, self.h_inv = self.jacobian(y1), True, None
        else:
            self.current_jac = False
        return y1, f1, err


def integrate(field_fn, x0, horizon: float, config: IntegratorConfig | None = None, jacobian=None) -> Trajectory:
    """Integrate y' = field_fn(y) from t=0 to the horizon or a terminal event.

    jacobian(y), the (n, n) matrix of field_fn's derivatives at y, turns on
    the stiffness test and, once it fires, the Radau IIA step.
    """
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

    def record_samples():  # every sample at t, to rounding, takes the state there
        nonlocal s_ptr
        while s_ptr < samples.size and samples[s_ptr] <= t + 1e-14 * max(1.0, abs(t)):
            record(samples[s_ptr], y)
            s_ptr += 1

    if samples is None:
        record(t, y)
    else:
        record_samples()

    n_acc = n_rej = 0
    fp_count = 0
    blow = None
    # a start at a fixed point ends at once (idempotent re-integration), and a
    # start at a non-finite field, where no step size can be chosen, on NONFINITE
    event = None if np.isfinite(f).all() else NONFINITE
    if event is None and _norm(f) < cfg.fixedpoint_norm:
        event = FIXED_POINT
    chose_step = event is None
    h = _initial_step(field_fn, y, f, cfg.rel_tol, cfg.abs_tol, horizon) if chose_step else 0.0
    n_calls = 1 + chose_step
    facold = _ERR_FLOOR  # the last accepted step's error, floored
    h_acc = 0.0  # the last accepted step's size; 0 until one was accepted
    rejected_last = False
    nonfinite_last = False  # the latest trial was rejected with a non-finite error
    k = np.empty((13, y.size))
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    order_expo, expo, beta = _ORDER_EXPO, _EXPO, _BETA
    radau = stiff_at = None
    n_radau = 0
    stiff_count = nonstiff_count = 0

    while event is None and t < horizon:
        if n_acc + n_rej >= _MAX_STEPS:
            raise RuntimeError(f"max_steps={_MAX_STEPS} exceeded at t={t:g}")
        # a step that would pass the horizon or the next sample lands on it
        stop = horizon if samples is None or s_ptr == samples.size else min(horizon, samples[s_ptr])
        h_free = h
        lands = h >= stop - t
        if lands:
            h = stop - t
        if not h >= 16 * _EPS * max(abs(t), 1.0):  # a NaN step size ends the run too
            event = NONFINITE if nonfinite_last or math.isnan(h) else STEP_UNDERFLOW
            break

        if radau is None:
            y1, z12 = _dop853_step(field_fn, y, f, h, k)
            n_calls += 12
            scale = np.maximum(np.abs(y), np.abs(y1))
            scale *= rel_tol
            scale += abs_tol
            # a non-finite field at the end point rejects the trial: no step could start there
            err = _error_norm(k, h, scale) if np.isfinite(k[12]).all() else math.nan
        else:
            y1, f1, err = radau.trial(y, f, h, rejected_last)

        if not err <= 1.0:  # also rejects a NaN error from a non-finite trial state
            n_rej += 1
            h *= max(_MIN_FACTOR, _SAFETY * err**-order_expo)
            rejected_last = True
            nonfinite_last = not math.isfinite(err)
            continue

        # accepted
        n_acc += 1
        t = stop if lands else t + h
        if radau is None:
            if jacobian is not None:
                # Hairer's stiffness test, on the twelfth stage and the field at y1
                den = _norm(y1 - z12)
                if den > 0.0 and h * _norm(k[12] - k[11]) > _STIFF_HLAMBDA * den:
                    stiff_count, nonstiff_count = stiff_count + 1, 0
                else:
                    nonstiff_count += 1
                    if nonstiff_count == _NONSTIFF_RESET:
                        stiff_count = 0
            y = y1
            f = k[12].copy()  # a rejected next trial overwrites k[12]; its retry starts from f
        else:
            n_radau += 1
            y, f = y1, f1

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * err**-expo * facold**beta)
        if rejected_last:
            factor = min(factor, 1.0)
        if h_acc > 0.0:
            # Gustafsson's predictive factor (RADAU5): the last two accepted
            # steps' errors forecast the next, so steps that must keep
            # shrinking, as near a blow-up, shrink before a trial is rejected
            factor = min(factor, _SAFETY * (h / h_acc) * (facold / max(err, _ERR_FLOOR) ** 2) ** order_expo)
        h_acc = h
        h *= max(_MIN_FACTOR, factor)
        if lands:  # the step was cut short to land, so the controller's h may be too small
            h = max(h, h_free)
        facold = max(err, _ERR_FLOOR)
        rejected_last = nonfinite_last = False
        if stiff_count == _STIFF_SUSTAIN and radau is None:
            # the controller starts afresh with the third-order error estimate
            radau, stiff_at = _RadauStep(field_fn, jacobian, y, rel_tol, abs_tol), t
            order_expo = expo = 0.25
            beta, h_acc, facold = 0.0, 0.0, _ERR_FLOOR

        if samples is None:
            record(t, y)
        else:
            record_samples()

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
        n_field_calls=n_calls + (radau.n_calls if radau else 0) + (event == BLOWUP),
        blowup=blow,
        stiff_at=stiff_at,
        n_accepted_radau=n_radau,
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
