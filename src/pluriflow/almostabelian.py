"""Pluriclosed structures and flow on almost-abelian Lie algebras.

An almost-abelian Hermitian algebra on R^(2n) is encoded by (a, v, A, J1): the
codimension-one abelian ideal is span(e_1, ..., e_(2n-1)), the adjoint action
of e_(2n) on it is the block matrix [[a, 0], [v, A]], and J1 is the complex
structure on the middle block n1 = span(e_2, ..., e_(2n-1)).  Integrability of
J forces [A, J1] = 0, and the pluriclosed condition is equivalent to A normal
with eigenvalue real parts in {0, -a/2}.

The gauged bracket flow closes on this parameterization and reduces to

    a' = c a,   v' = c v + S v - |v|^2 v / 2,   A' = c A,

with c = (k/4 - 1/2) a^2 - |v|^2 / 2, S = (k/4 - 1/2) a^2 Id - A A^t / 2
+ (a/4)(A + A^t), and 2k = rank(A + A^t) frozen at the initial condition.
The pair (a, A) moves only by a common scale, so the flow runs on the state
(r, v) with r = |(a, A)|: along the fixed direction (a0, A0) / r0 it reads
(a, A) = (r / r0)(a0, A0) and S = (r / r0)^2 S(a0, A0).  integrate_reduced_flow
reads that flow off its exact solution (ReducedFlow).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .brackets import LieBracket, frobenius_norm, frobenius_sq
from .hermitian import HermitianFrame, skt_closure_holds, skt_closure_residual
from .normality import normality_defect
from .serialize import json_array, json_number

__all__ = [
    "AlmostAbelianData",
    "SktVerdict",
    "PComponents",
    "SolitonKind",
    "SolitonCertificate",
    "ClassificationReport",
    "build_bracket",
    "hermitian_frame",
    "skt_verdict",
    "skt_multiplicity_k",
    "p_components",
    "p_matrix",
    "gauge_matrix",
    "ReducedFlow",
    "integrate_reduced_flow",
    "extinction_time",
    "ReducedTrajectory",
    "soliton_certificate",
    "classify",
    "UNNORMALIZED",
    "A_NORM_FIXED",
]

UNNORMALIZED = "UNNORMALIZED"
A_NORM_FIXED = "A_NORM_FIXED"

_K_RTOL = 1e-8  # relative cutoff of the rank count of k
_CLASSIFY_TOL = 1e-9  # a = 0 and unimodularity, relative to |(a, A)|


class SolitonKind(enum.Enum):
    NONE = "NONE"
    KAHLER_RICCI_FLAT = "KAHLER_RICCI_FLAT"
    EXPANDING = "EXPANDING"
    STEADY = "STEADY"
    SHRINKING = "SHRINKING"


@dataclass(frozen=True)
class AlmostAbelianData:
    """The tuple (a, v, A, J1) determining a left-invariant Hermitian structure."""

    a: float
    v: np.ndarray
    A: np.ndarray
    J1: np.ndarray

    def __post_init__(self):
        a = float(self.a)
        v = np.asarray(self.v, dtype=float).ravel()
        A = np.asarray(self.A, dtype=float)
        J1 = np.asarray(self.J1, dtype=float)
        m = v.size
        if A.shape != (m, m) or J1.shape != (m, m):
            raise ValueError("A and J1 must be square matrices matching len(v)")
        if m % 2 != 0:
            raise ValueError("middle block dimension must be even")
        if not (math.isfinite(a) and np.isfinite(v).all() and np.isfinite(A).all()):
            raise ValueError("a, v and A must be finite")
        J1 = HermitianFrame(J1).J
        # [A, J1] is linear in A, so it is read at A's own scale
        if np.abs(A @ J1 - J1 @ A).max() > 1e-12 * np.abs(A).max(initial=0.0):
            raise ValueError("[A, J1] != 0: the complex structure is not integrable")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "J1", J1)

    @property
    def m(self) -> int:
        return self.v.size

    @property
    def dim(self) -> int:
        return self.m + 2

    def replace(self, a=None, v=None, A=None) -> "AlmostAbelianData":
        return AlmostAbelianData(
            self.a if a is None else a,
            self.v if v is None else v,
            self.A if A is None else A,
            self.J1,
        )

    # --- reduced-flow state (r, v), r = |(a, A)| ---------------------------
    @property
    def scale_sq(self) -> float:
        """|(a, A)|^2 = a^2 + |A|^2."""
        return self.a * self.a + float(np.sum(self.A * self.A))

    def to_state(self) -> np.ndarray:
        return np.concatenate([[np.sqrt(self.scale_sq)], self.v])

    def from_state(self, x: np.ndarray) -> "AlmostAbelianData":
        """Decode a state (r, v) of the reduced flow started from this data:
        (a, A) = (r / r0)(a0, A0), which is this data's own pair at r = r0."""
        lam = x[0] / _direction_norm(self)
        return AlmostAbelianData(lam * self.a, x[1:], lam * self.A, self.J1)

    # --- JSON interchange --------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "v": [float(x) for x in self.v],
            "A": [[float(x) for x in row] for row in self.A],
            "J1": [[float(x) for x in row] for row in self.J1],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AlmostAbelianData":
        v = json_array(obj["v"], "v")
        A = json_array(obj["A"], "A")
        j1 = obj.get("J1", "standard")
        if isinstance(j1, str):
            if j1 != "standard":
                raise ValueError(f"unknown J1 spec {j1!r}")
            j1 = HermitianFrame.antidiagonal(v.size).J
        else:
            j1 = json_array(j1, "J1")
        return cls(json_number(obj["a"], "a"), v, A, j1)


def build_bracket(data: AlmostAbelianData) -> LieBracket:
    """Bracket with ad e_(2n) = [[a, 0, 0], [v, A, 0], [0, 0, 0]], all else zero."""
    d = data.dim
    m = data.m
    t = np.zeros((d, d, d))
    last = d - 1
    # ad e_last (e_1) = a e_1 + v
    t[last, 0, 0] = data.a
    t[last, 0, 1 : 1 + m] = data.v
    # ad e_last on the middle block: <mu(e_last, e_j), e_k> = A[k, j]
    t[last, 1 : 1 + m, 1 : 1 + m] = data.A.T
    return LieBracket(t - t.transpose(1, 0, 2))


def hermitian_frame(data: AlmostAbelianData) -> HermitianFrame:
    """Frame with J e_1 = e_(2n), J restricted to the middle block equal to J1."""
    d = data.dim
    j = np.zeros((d, d))
    j[d - 1, 0] = 1.0
    j[0, d - 1] = -1.0
    j[1 : d - 1, 1 : d - 1] = data.J1
    return HermitianFrame(j)


@dataclass(frozen=True)
class SktVerdict:
    is_skt: bool
    k: int
    normality_defect: float
    spectrum: np.ndarray
    residual_lemma: float


def skt_multiplicity_k(a: float, A: np.ndarray) -> int:
    """k: half the rank of A + A^t."""
    A = np.asarray(A, dtype=float)
    s = np.linalg.eigvalsh(0.5 * (A + A.T))
    # |A| keeps the cutoff above roundoff when a = 0, where A is normal with
    # imaginary spectrum and sym(A) is roundoff alone
    scale = max(np.abs(s).max(initial=0.0), abs(a) / 2, np.linalg.norm(A), 1e-300)
    nonzero = int(np.sum(np.abs(s) > _K_RTOL * scale))
    if nonzero % 2 != 0:
        # rank of the symmetric part of a J-commuting matrix is even; a stray
        # odd count means an eigenvalue sits on the threshold
        nonzero += 1
    return nonzero // 2


def _skt_k(data: AlmostAbelianData) -> tuple[bool, int]:
    """(is_skt, k): pluriclosedness by the closure criterion
    sym(aA + A^2 + A^tA) = 0, and k."""
    return skt_closure_holds(data.a, data.A), skt_multiplicity_k(data.a, data.A)


def skt_verdict(data: AlmostAbelianData) -> SktVerdict:
    """Decide pluriclosedness by the closure criterion sym(aA + A^2 + A^tA) = 0.

    The spectral criterion (A normal with eigenvalue real parts in {0, -a/2})
    is equivalent as a theorem; the verdict reports the normality defect and
    the spectrum it reads, and the tests keep it as an oracle.
    """
    is_skt, k = _skt_k(data)
    return SktVerdict(
        is_skt=is_skt,
        k=k,
        normality_defect=normality_defect(data.A),
        spectrum=np.sort_complex(np.linalg.eigvals(data.A)),
        residual_lemma=skt_closure_residual(data.a, data.A),
    )


@dataclass(frozen=True)
class PComponents:
    c: float
    w: np.ndarray


def p_components(data: AlmostAbelianData) -> PComponents:
    """Scalar and vector components of the flow endomorphism P.

    c = (k/4 - 1/2) a^2 - |v|^2 / 2 and w = -A^t v / 4; P is the symmetric
    J-commuting matrix with c in the two outer corners and w coupling them to
    the middle block.
    """
    k = skt_multiplicity_k(data.a, data.A)
    return PComponents(c=_c_scalar(k, data.a, float(data.v @ data.v)), w=_w_vector(data.A, data.v))


def _s_top(k: int, a: float) -> float:
    """(k/4 - 1/2) a^2: the top eigenvalue of S, attained on ker A."""
    return (k / 4.0 - 0.5) * (a * a)


def _c_scalar(k: int, a: float, vv: float) -> float:
    """c = (k/4 - 1/2) a^2 - |v|^2 / 2, given vv = |v|^2."""
    return _s_top(k, a) - 0.5 * vv


def _w_vector(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -0.25 * A.T @ v


def p_matrix(data: AlmostAbelianData) -> np.ndarray:
    """Assemble the full P endomorphism from its (c, w) components."""
    comps = p_components(data)
    d, m = data.dim, data.m
    p = np.zeros((d, d))
    p[0, 0] = p[d - 1, d - 1] = comps.c
    p[1 : 1 + m, 0] = comps.w
    p[0, 1 : 1 + m] = comps.w
    jw = data.J1 @ comps.w
    p[1 : 1 + m, d - 1] = jw
    p[d - 1, 1 : 1 + m] = jw
    return p


def gauge_matrix(data: AlmostAbelianData) -> np.ndarray:
    """Skew-symmetric J-commuting gauge U making the flow preserve the block form."""
    d, m = data.dim, data.m
    w = _w_vector(data.A, data.v)
    u = np.zeros((d, d))
    u[0, 1 : 1 + m] = w
    u[1 : 1 + m, 0] = -w
    u[1 : 1 + m, 1 : 1 + m] = (data.a / 4.0) * (data.A - data.A.T)
    jw = data.J1 @ w
    u[1 : 1 + m, d - 1] = -jw
    u[d - 1, 1 : 1 + m] = jw
    return u


def _s_matrix(a: float, A: np.ndarray, k: int) -> np.ndarray:
    """S = (k/4 - 1/2) a^2 Id - A A^t / 2 + (a/4)(A + A^t)."""
    s = (-0.5 * A).dot(A.T)
    diag = s.reshape(-1)[:: A.shape[0] + 1]
    diag += _s_top(k, a)
    s += (a / 4.0) * (A + A.T)
    return s


def _direction_norm(data0: AlmostAbelianData) -> float:
    """r0 = |(a0, A0)|, the divisor that turns a state's r into the scale of
    (a0, A0); 1 for the zero pair, whose direction is zero at every r."""
    return float(np.sqrt(data0.scale_sq)) or 1.0


# Unsampled rows: 128 equal steps in tau.  Each row is exact, so their number sets
# only a CSV's resolution; an engine run recorded ~350 rows (its accepted steps),
# and `--samples` asks for rows at any other times.
_TAU_GRID = np.linspace(0.0, 1.0, 129)
# Eigenvalues of S0 this close to c0 (relative) span ker A0: a pair +-i theta of A0
# lies theta^2 / 2 below c0, so theta up to about sqrt(2e-10 scale) counts as 0.  On
# exact kernels the gap is roundoff, below 2e-15 under J-unitary rotations and scalings.
_TOP_RTOL = 1e-10
_IMAGE_RTOL = 1e-8  # relative weight of v0 on ker A0 above which v0 leaves Im A0
# 1 / (i + j + 2)! for the Taylor series of _exp_dd; the terms left out are below 1e-21
_DD_TERMS = np.array([[1.0 / math.factorial(i + j + 2) for j in range(20)] for i in range(20)])


def _phi1(x):
    """(e^x - 1) / x, and 1 at x = 0."""
    return np.where(x == 0.0, 1.0, np.expm1(x) / np.where(x == 0.0, 1.0, x))


def _exp_dd(x, y):
    """exp[0, x, y] = int e^(s x + u y) over s, u >= 0, s + u <= 1: shifted by the
    top point to 0 >= p >= q, sum p^i q^j / (i + j + 2)! while q >= -1, else
    (exp[0, p] - exp[p, q]) / -q, which cancels at most two bits."""
    hi = np.maximum(0.0, np.maximum(x, y))
    a, b, c = -hi, x - hi, y - hi
    q = np.minimum(np.minimum(a, b), c)
    p = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    qf = np.minimum(q, -1.0)
    out = (_phi1(p) - np.exp(p) * _phi1(qf - p)) / -qf
    near, n = q >= -1.0, np.arange(_DD_TERMS.shape[0])
    out[near] = ((p[near][:, None] ** n @ _DD_TERMS) * q[near][:, None] ** n).sum(axis=1)
    return np.exp(hi) * out


def _root(g, lo, hi=None):
    """Where g(tau) = (value, slope), increasing, crosses 0 above lo, g(lo) <= 0:
    the bracket's upper end starts at hi (by default max(1, 2 lo)) and doubles
    until g > 0 there, then Newton steps from it, the first on that same
    evaluation, bisecting where one leaves the bracket.  A value within 4 eps
    of 0 is a root: g is a log, resolved to its last bits, and past that point
    Newton only wanders."""
    tol = 4.0 * engine._EPS
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hi = np.maximum(1.0, 2.0 * lo) if hi is None else hi
        for _ in range(1100):  # past the largest double
            val, slope = g(hi)
            if not (low := ~(val >= -tol)).any():
                break
            lo, hi = np.where(low, hi, lo), np.where(low, 2.0 * hi, hi)
        else:
            val, slope = g(hi)
        x = step = hi
        for _ in range(200):
            lo, hi = np.where(val > 0, lo, x), np.where(val > 0, x, hi)
            step = x - val / slope
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            if np.all((np.abs(step - x) <= tol * x) | (np.abs(val) <= tol)):
                break
            x = step
            val, slope = g(x)
    return step


class ReducedFlow:
    """The reduced flow on the state (r, v), r = |(a, A)|, and its exact solution.

    With lam = r / r0, c0 = (k/4 - 1/2) a0^2 and S0 = S(a0, A0), the field is
    r' = c r, v' = c v + lam^2 S0 v - |v|^2 v / 2, c = lam^2 c0 - |v|^2 / 2;
    freezing (a, A) leaves r' = 0 and v' = S0 v - |v|^2 v / 2.  k is frozen at
    the initial condition, since A only scales.  In the time tau, d tau =
    lam^2 dt, w = v / lam follows the frozen flow, and with S0 = Q diag(sigma)
    Q^t, beta = Q^t v0 and D = 1 + sum beta_i^2 (e^(2 sigma_i tau) - 1) /
    (2 sigma_i), w = Q e^(tau sigma) beta / sqrt(D) and lam = e^(c0 tau) /
    sqrt(D) (README, "The state of the reduced flow").
    """

    def __init__(self, data0: AlmostAbelianData, mode: str = UNNORMALIZED):
        if mode not in (UNNORMALIZED, A_NORM_FIXED):
            raise ValueError(f"unknown mode {mode!r}")
        is_skt, self.k = _skt_k(data0)
        if not is_skt:
            raise ValueError("initial condition is not pluriclosed")
        self.data0, self.mode = data0, mode
        self.c = _s_top(self.k, data0.a)
        self._r0, self._x0 = _direction_norm(data0), data0.to_state()
        self._s0 = _s_matrix(data0.a, data0.A, self.k)
        self.sigma, self._q = np.linalg.eigh(self._s0)
        self._beta, gap = self._q.T @ data0.v, self.c - self.sigma
        top = gap <= _TOP_RTOL * max(abs(self.c), np.abs(self.sigma).max(initial=0.0))
        self.top_weight = bool(np.linalg.norm(self._beta[top]) > _IMAGE_RTOL * np.linalg.norm(data0.v))
        if not self.top_weight:
            self._beta[top] = 0.0
        self._b2 = self._beta**2
        self._m = max(0.0, self.sigma[self._b2 > 0].max(initial=0.0))  # e^(-2 m tau) D stays in range
        self.T = math.inf
        if self.c > 0 and not self.top_weight:
            # T = [1 + v0^t (c0 - S0)^+ v0 / 2] / (2 c0), the weight on ker A0 dropped
            self._tail_w = np.divide(1.0, 4.0 * self.c * gap, out=np.zeros_like(gap), where=self._b2 > 0)
            self.T = 0.5 / self.c + float(self._b2 @ self._tail_w)

    @property
    def limit(self) -> str:
        """ZERO, NONZERO or BLOWUP: where lam = e^(c0 tau) / sqrt(D) goes,
        unnormalized (README, "The state of the reduced flow")."""
        if self.c > 0:
            return "NONZERO" if self.top_weight else "BLOWUP"
        return "NONZERO" if self.c == 0 and not self.top_weight else "ZERO"

    def field(self, x: np.ndarray) -> np.ndarray:
        """The right-hand side at x = (r, v), which the exact solution solves."""
        v = x[1:]
        vv = float(v.dot(v))
        lam2 = 1.0 if self.mode == A_NORM_FIXED else (x[0] / self._r0) ** 2
        c = 0.0 if self.mode == A_NORM_FIXED else lam2 * self.c - 0.5 * vv
        return np.concatenate([[c * x[0]], lam2 * self._s0.dot(v) + (c - 0.5 * vv) * v])

    def _log_lam(self, tau):
        """(log lam, e^(-2 m tau) D) at the times tau (n,)."""
        tc, s, m = tau[:, None], self.sigma, self._m
        grow = np.exp(2.0 * np.minimum(np.maximum(s, 0.0) - m, 0.0) * tc) * tc * _phi1(-2.0 * np.abs(s) * tc)
        d = np.exp(-2.0 * m * tau) + grow @ self._b2
        return (np.zeros_like(tau) if self.mode == A_NORM_FIXED else (self.c - m) * tau - 0.5 * np.log(d)), d

    def _at(self, tau):
        """(log lam, w in the eigenbasis of S0, dt/dtau) at the times tau (n,)."""
        log_lam, d = self._log_lam(tau)
        w = np.exp(np.minimum(self.sigma - self._m, 0.0) * tau[:, None]) * self._beta / np.sqrt(d)[:, None]
        return log_lam, w, np.exp(-2.0 * log_lam)

    def times(self, tau):
        """t(tau), through divided differences of exp."""
        if self.mode == A_NORM_FIXED:
            return tau
        x = -2.0 * self.c * tau
        return tau * _phi1(x) + tau * tau * (_exp_dd(x[:, None], 2.0 * (self.sigma - self.c) * tau[:, None]) @ self._b2)

    def tau_at(self, t):
        """tau at the times 0 < t < T: the root of _horizon_g(t), with the
        bracket from _tau0(t)."""
        return t if self.mode == A_NORM_FIXED else _root(self._horizon_g(t), 0.0 * t, self._tau0(t))

    def _horizon_g(self, t):
        """g(tau) = log(t(tau) / t), or, when T is finite, log((T - t) /
        (T - t(tau))), with its slope from dt/dtau = lam^-2.  T - t(tau) is
        the extinction time of the state at tau: [1 + w^t (c0 - S0)^+ w / 2] /
        (2 c0 lam^2), since the state's (c, S) are lam^2 (c0, S0)."""
        if self.T < math.inf:

            def g(tau):
                _, w, dt = self._at(tau)
                u = dt * (0.5 / self.c + (w * w) @ self._tail_w)
                return np.log((self.T - t) / u), dt / u

            return g

        def g(tau):
            u = self.times(tau)
            return np.log(u / t), np.exp(-2.0 * self._log_lam(tau)[0]) / u

        return g

    def _tau0(self, t):
        """The time tau0 = log(1 - 2 c0 t) / (-2 c0) that t takes at v0 = 0
        (tau0 = t at c0 = 0): since D >= 1, t(tau) >= tau phi1(-2 c0 tau),
        so the root lies below it; at v0 = 0 it is the root, and it is raised
        by 4 eps past its own roundoff, which t(tau) amplifies by
        d log t / d log tau.  Where 2 c0 t >= 1 there is no such bound, and
        the bracket starts at 1."""
        z = -2.0 * self.c * t
        bounded = (z > -1.0) & (z < math.inf)
        zs = np.where(bounded & (z != 0.0), z, 1.0)
        ratio = np.where(z == 0.0, 1.0, np.log1p(zs) / zs)
        return np.where(bounded, t * ratio * (1.0 + 4.0 * engine._EPS), 1.0)

    def _log_norm(self, tau):
        """(log(|x| / engine._BLOWUP_NORM), its tau-derivative)."""
        log_lam, w, _ = self._at(tau)
        ww = w * w
        w2 = ww.sum(axis=1)
        r2 = self._x0[0] ** 2 + w2
        slope = self.c - 0.5 * w2 + (ww @ self.sigma - 0.5 * w2 * w2) / r2
        return log_lam + 0.5 * np.log(r2) - math.log(engine._BLOWUP_NORM), slope

    def states(self, tau):
        """The states (r, v) at the times tau (n,)."""
        log_lam, w, _ = self._at(tau)
        lam = np.exp(log_lam)[:, None]
        return np.hstack([lam * self._x0[0], (lam * w) @ self._q.T])


@dataclass
class ReducedTrajectory:
    """Recorded reduced flow with per-state diagnostics."""

    data0: AlmostAbelianData
    k: int
    raw: engine.Trajectory

    @property
    def times(self):
        return self.raw.times

    def diagnostics(self) -> dict:
        """Columns: t, a, v_norm, A_norm, c, skt_residual, normality_defect.

        Each row is read off its state (r, v) at O(m) cost: with lam = r / r0,
        a = lam a0, |A| = lam |A0| and c = lam^2 (k/4 - 1/2) a0^2 - |v|^2 / 2,
        the field's own c.  The residual columns are scale-normalized
        (quadratic quantities over |(a, A)|^2), so along the fixed direction
        of (a, A) they are the constants of the initial condition.
        """
        d0 = self.data0
        states = self.raw.states
        n = states.shape[0]
        lam = states[:, 0] / _direction_norm(d0)
        lam2 = lam * lam
        vv = frobenius_sq(states[:, None, 1:])
        scale2 = max(d0.scale_sq, 1e-300)
        return {
            "t": np.array(self.raw.times, dtype=float),
            "a": lam * d0.a,
            "v_norm": np.sqrt(vv),
            "A_norm": lam * frobenius_norm(d0.A),
            "c": lam2 * _s_top(self.k, d0.a) - 0.5 * vv,
            "skt_residual": np.full(n, skt_closure_residual(d0.a, d0.A) / scale2),
            "normality_defect": np.full(n, normality_defect(d0.A) / scale2),
        }


def integrate_reduced_flow(
    data0: AlmostAbelianData,
    mode: str = UNNORMALIZED,
    horizon: float = 100.0,
    sample_times: np.ndarray | None = None,
) -> ReducedTrajectory:
    """The reduced flow from an SKT initial condition, read off its exact
    solution: BLOWUP where |x| reaches engine._BLOWUP_NORM within the horizon,
    else HORIZON.  Rows at _TAU_GRID of the run's span in tau, or at the
    sample times, and at its end.  ValueError when a row overflows."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    flow = ReducedFlow(data0, mode)
    event, t_end = engine.HORIZON, float(horizon)
    if mode == UNNORMALIZED and flow.T < math.inf:
        tau_b = _root(flow._log_norm, np.zeros(1))
        t_b = float(flow.times(tau_b)[0])
        if t_b <= t_end:
            event, tau_end, t_end = engine.BLOWUP, tau_b, t_b
    if event == engine.HORIZON:
        tau_end = flow.tau_at(np.array([t_end]))
    if sample_times is None:
        tau = tau_end * _TAU_GRID
        times = flow.times(tau)
        times[-1] = t_end
    else:
        times = np.sort(np.asarray(sample_times, dtype=float))
        close = 1e-14 * max(1.0, t_end)
        times = times[times <= t_end + close]
        if not times.size or abs(times[-1] - t_end) > close:
            times = np.append(times, t_end)
        tau = np.where(times < t_end, 0.0, tau_end)
        inner = (times > 0.0) & (times < t_end)
        tau[inner] = flow.tau_at(times[inner])
    states = flow.states(tau)
    if not (np.isfinite(times).all() and np.isfinite(states).all()):
        raise ValueError("the reduced flow overflows: a row is not finite")
    blowup = engine.BlowupFit(flow.T, 0.5) if event == engine.BLOWUP else None
    raw = engine.Trajectory(times, states, event, blowup=blowup)
    return ReducedTrajectory(data0=data0, k=flow.k, raw=raw)


def extinction_time(data: AlmostAbelianData) -> float:
    """T of the unnormalized reduced flow from data, inf when it is immortal;
    finite exactly when classify says FINITE."""
    return ReducedFlow(data).T


@dataclass
class SolitonCertificate:
    kind: SolitonKind
    alpha: float
    residual: float
    eigen_lambda: float | None


def _derivation_residual(data: AlmostAbelianData, u_norm: float) -> float:
    """|pi(D) mu| / |mu| of D = P - c Id - U from u_norm = |S v - |v|^2 v / 2|,
    0 at the zero bracket: pi(D) mu is [D_h, ad e_(2n)] on (e_(2n), h), which
    is -[[0, 0], [S v - |v|^2 v / 2, (a/4)[A, A^t]]] (README, "The derivation space")."""
    mu_sq = data.scale_sq + float(data.v @ data.v)
    if mu_sq == 0.0:
        return 0.0
    return math.hypot(u_norm, 0.25 * data.a * normality_defect(data.A)) / math.sqrt(mu_sq)


def soliton_certificate(data: AlmostAbelianData, tol: float = 1e-8) -> SolitonCertificate:
    """Detect the algebraic-soliton cases: v = 0, or v an eigenvector of S
    with eigenvalue |v|^2 / 2; classify by the sign of the cosmological
    constant alpha = c.  A detected soliton's derivation is
    D = P - alpha Id - U (U the gauge_matrix), which commutes with J and has
    sym(D) = P - alpha Id; the residual takes in |pi(D) mu| / |mu|, read off
    (a, v, A) in closed form.
    """
    is_skt, k = _skt_k(data)
    if not is_skt:
        raise ValueError("soliton certificates require a pluriclosed structure")
    a, v, A = data.a, data.v, data.A
    vnorm = float(np.linalg.norm(v))
    # at the data's own scale; an exact zero is zero at every scale
    scale = max(abs(a), float(np.linalg.norm(A)), vnorm)
    lam = 0.5 * (vnorm * vnorm)
    u_norm = float(np.linalg.norm(_s_matrix(a, A, k) @ v - lam * v))

    kind = SolitonKind.NONE
    eigen_lambda = None
    if vnorm < tol * scale or vnorm == 0.0:
        residual = vnorm
        if abs(a) < tol * scale or a == 0.0:
            kind = SolitonKind.KAHLER_RICCI_FLAT
        elif k < 2:
            kind = SolitonKind.EXPANDING
        elif k == 2:
            kind = SolitonKind.STEADY
        else:
            kind = SolitonKind.SHRINKING
    else:
        residual = u_norm / max(vnorm, 1e-300)
        if residual < tol * (scale * scale):
            kind = SolitonKind.STEADY if abs(lam - _s_top(k, a)) < tol * (scale * scale) else SolitonKind.SHRINKING
            eigen_lambda = lam

    if kind is not SolitonKind.NONE:
        residual = max(residual, _derivation_residual(data, u_norm))
    return SolitonCertificate(kind, _c_scalar(k, a, float(v @ v)), residual, eigen_lambda)


@dataclass
class ClassificationReport:
    table_case: str
    k: int
    unimodular: bool
    predicted_T: str
    predicted_limit: str
    soliton_type_at_limit: SolitonKind


def classify(data: AlmostAbelianData) -> ClassificationReport:
    """Asymptotic regime of the reduced flow by (k, a_0, v_0 vs Im A_0), the last
    read off ReducedFlow's split of S_0, as extinction_time and limit are."""
    is_skt, k = _skt_k(data)
    if not is_skt:
        raise ValueError("classification requires a pluriclosed structure")
    a = data.a
    scale = max(abs(a), float(np.linalg.norm(data.A)))
    if scale == 0.0:
        raise ValueError("nilpotent case (a, A) = (0, 0): use the nilpotent flow module")
    unimodular = abs(a + float(np.trace(data.A))) < _CLASSIFY_TOL * scale

    if k == 0:
        if abs(a) < _CLASSIFY_TOL * scale:
            case, t_pred, lim, kind = "i", "INFINITE", "DATA_DEPENDENT", SolitonKind.KAHLER_RICCI_FLAT
        else:
            case, t_pred, lim, kind = "ii", "INFINITE", "ZERO", SolitonKind.EXPANDING
    elif k == 1:
        case, t_pred, lim, kind = "iii", "INFINITE", "ZERO", SolitonKind.EXPANDING
    elif k == 2:
        case, t_pred, lim, kind = "iv", "INFINITE", "DATA_DEPENDENT", SolitonKind.STEADY
    elif ReducedFlow(data).top_weight:
        case, t_pred, lim, kind = "v", "INFINITE", "NONZERO", SolitonKind.STEADY
    else:
        case, t_pred, lim, kind = "vi", "FINITE", "BLOWUP", SolitonKind.SHRINKING
    return ClassificationReport(case, k, unimodular, t_pred, lim, kind)
