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
(a, A) = (r / r0)(a0, A0) and S = (r / r0)^2 S(a0, A0).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import engine
from .brackets import LieBracket, frobenius_norm, frobenius_sq, soliton_decomposition
from .hermitian import HermitianFrame, skt_closure_residual
from .normality import normality_defect

__all__ = [
    "AlmostAbelianData",
    "SktVerdict",
    "SktCriteriaDisagreement",
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
    "eigencomponent_dynamics",
    "integrate_reduced_flow",
    "ReducedTrajectory",
    "soliton_certificate",
    "classify",
    "self_similar_deviation",
    "UNNORMALIZED",
    "A_NORM_FIXED",
]

UNNORMALIZED = "UNNORMALIZED"
A_NORM_FIXED = "A_NORM_FIXED"


class SolitonKind(enum.Enum):
    NONE = "NONE"
    KAHLER_RICCI_FLAT = "KAHLER_RICCI_FLAT"
    EXPANDING = "EXPANDING"
    STEADY = "STEADY"
    SHRINKING = "SHRINKING"


class SktCriteriaDisagreement(RuntimeError):
    """The closure and spectral pluriclosed criteria disagreed; they coincide
    as a theorem, so this signals a numerical or code defect."""


@dataclass(frozen=True)
class AlmostAbelianData:
    """The tuple (a, v, A, J1) determining a left-invariant Hermitian structure."""

    a: float
    v: np.ndarray
    A: np.ndarray
    J1: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).ravel()
        A = np.asarray(self.A, dtype=float)
        J1 = np.asarray(self.J1, dtype=float)
        m = v.size
        if A.shape != (m, m) or J1.shape != (m, m):
            raise ValueError("A and J1 must be square matrices matching len(v)")
        if m % 2 != 0:
            raise ValueError("middle block dimension must be even")
        scale = max(1.0, np.abs(A).max())
        if np.abs(J1 @ J1 + np.eye(m)).max() > 1e-12:
            raise ValueError("J1^2 != -Id")
        if np.abs(J1.T @ J1 - np.eye(m)).max() > 1e-12:
            raise ValueError("J1 is not orthogonal")
        if np.abs(A @ J1 - J1 @ A).max() > 1e-12 * scale:
            raise ValueError("[A, J1] != 0: the complex structure is not integrable")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "J1", J1)

    @property
    def m(self) -> int:
        return self.v.size

    @property
    def dim(self) -> int:
        return self.m + 2

    @property
    def n(self) -> int:
        return self.dim // 2

    @classmethod
    def with_standard_j1(cls, a, v, A) -> "AlmostAbelianData":
        return cls(a, v, A, HermitianFrame.antidiagonal(np.asarray(v).size).J)

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
        v = np.asarray(obj["v"], dtype=float)
        A = np.asarray(obj["A"], dtype=float)
        j1 = obj.get("J1", "standard")
        if isinstance(j1, str):
            if j1 != "standard":
                raise ValueError(f"unknown J1 spec {j1!r}")
            j1 = HermitianFrame.antidiagonal(v.size).J
        return cls(float(obj["a"]), v, A, np.asarray(j1, dtype=float))


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
    residual_spectral: float


def skt_multiplicity_k(a: float, A: np.ndarray, rtol: float = 1e-8):
    """(k, cross_check_k): half the rank of A + A^t, and half the multiplicity
    of -a/2 among the eigenvalues of sym(A) when a != 0 (None otherwise)."""
    A = np.asarray(A, dtype=float)
    s = np.linalg.eigvalsh(0.5 * (A + A.T))
    # |A| keeps the cutoff above roundoff when a = 0, where A is normal with
    # imaginary spectrum and sym(A) is roundoff alone
    scale = max(np.abs(s).max(initial=0.0), abs(a) / 2, np.linalg.norm(A), 1e-300)
    nonzero = int(np.sum(np.abs(s) > rtol * scale))
    if nonzero % 2 != 0:
        # rank of the symmetric part of a J-commuting matrix is even; a stray
        # odd count means an eigenvalue sits on the threshold
        nonzero += 1
    k = nonzero // 2
    cross = None
    if abs(a) > rtol * scale:
        cross = int(np.sum(np.abs(s + a / 2) < rtol * scale)) // 2
    return k, cross


def skt_verdict(
    data: AlmostAbelianData,
    tol_lemma: float = 1e-9,
    tol_spectral: float = 1e-7,
) -> SktVerdict:
    """Evaluate both pluriclosed criteria; they must agree.

    The closure criterion asks sym(aA + A^2 + A^tA) = 0; the spectral one asks
    A normal with eigenvalue real parts in {0, -a/2}.
    """
    a, A = data.a, data.A
    m = data.m
    scale = max(1.0, float(np.linalg.norm(A)), abs(a))
    res_lemma = skt_closure_residual(a, A)
    lemma_ok = res_lemma < tol_lemma * scale**2

    defect = normality_defect(A)
    spectrum = np.linalg.eigvals(A)
    re = spectrum.real
    re_dev = float(np.minimum(np.abs(re), np.abs(re + a / 2)).max()) if m else 0.0
    res_spectral = max(defect / scale, re_dev)
    spectral_ok = defect < tol_spectral * scale**2 and re_dev < tol_spectral * scale

    if lemma_ok != spectral_ok:
        raise SktCriteriaDisagreement(
            "pluriclosed criteria disagree: "
            f"closure residual {res_lemma:.3e} (ok={lemma_ok}), "
            f"normality defect {defect:.3e}, real-part deviation {re_dev:.3e} "
            f"(ok={spectral_ok}); a={a!r}, A={A!r}"
        )
    k, cross = skt_multiplicity_k(a, A)
    if lemma_ok and cross is not None and cross != k:
        raise SktCriteriaDisagreement(
            f"rank and multiplicity counts of k disagree on an SKT instance: {k} vs {cross}"
        )
    return SktVerdict(
        is_skt=lemma_ok,
        k=k,
        normality_defect=defect,
        spectrum=np.sort_complex(spectrum),
        residual_lemma=res_lemma,
        residual_spectral=res_spectral,
    )


@dataclass(frozen=True)
class PComponents:
    c: float
    w: np.ndarray


def p_components(data: AlmostAbelianData, k: int | None = None) -> PComponents:
    """Scalar and vector components of the flow endomorphism P.

    c = (k/4 - 1/2) a^2 - |v|^2 / 2 and w = -A^t v / 4; P is the symmetric
    J-commuting matrix with c in the two outer corners and w coupling them to
    the middle block.
    """
    if k is None:
        k = skt_multiplicity_k(data.a, data.A)[0]
    return PComponents(c=_c_scalar(k, data.a, float(data.v @ data.v)), w=_w_vector(data.A, data.v))


def _s_top(k: int, a: float) -> float:
    """(k/4 - 1/2) a^2: the top eigenvalue of S, attained on ker A."""
    return (k / 4.0 - 0.5) * a**2


def _c_scalar(k: int, a: float, vv: float) -> float:
    """c = (k/4 - 1/2) a^2 - |v|^2 / 2, given vv = |v|^2."""
    return _s_top(k, a) - 0.5 * vv


def _w_vector(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -0.25 * A.T @ v


def p_matrix(data: AlmostAbelianData, comps: PComponents | None = None) -> np.ndarray:
    """Assemble the full P endomorphism from its (c, w) components."""
    comps = comps or p_components(data)
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


class ReducedFlow:
    """Reduced gauged bracket flow on the state (r, v), r = |(a, A)|.

    With lam = r / r0 the pair is lam (a0, A0), so c = lam^2 (k/4 - 1/2) a0^2
    - |v|^2 / 2, r' = c r and v' = c v + lam^2 S0 v - |v|^2 v / 2, where S0 is
    S at the initial condition.  Under the normalization that freezes (a, A),
    r' = 0 and v' = S0 v - |v|^2 v / 2.  k is computed from the initial
    condition and frozen: A evolves by scaling, so eigenvalue multiplicities
    are constant, and recomputing k each step risks rank flicker near zero
    eigenvalues.
    """

    def __init__(self, data0: AlmostAbelianData, mode: str = UNNORMALIZED):
        if mode not in (UNNORMALIZED, A_NORM_FIXED):
            raise ValueError(f"unknown mode {mode!r}")
        verdict = skt_verdict(data0)
        if not verdict.is_skt:
            raise ValueError("initial condition is not pluriclosed")
        self.k = verdict.k
        self.data0 = data0
        self.mode = mode
        self._r0 = _direction_norm(data0)
        self._c_top = _s_top(self.k, data0.a)
        # S0 acting on the v block of a state; its zero first row and column
        # leave r out of S0 x
        m = data0.m
        self._s0 = np.zeros((m + 1, m + 1))
        self._s0[1:, 1:] = _s_matrix(data0.a, data0.A, self.k)

    def field(self, x: np.ndarray) -> np.ndarray:
        v = x[1:]
        vv = float(v.dot(v))
        out = self._s0.dot(x)
        if self.mode == A_NORM_FIXED:
            out -= (0.5 * vv) * x
            out[0] = 0.0
            return out
        r = float(x[0])
        lam = r / self._r0
        lam2 = lam * lam
        c = lam2 * self._c_top - 0.5 * vv
        out *= lam2
        out += (c - 0.5 * vv) * x
        out[0] = c * r
        return out


def eigencomponent_dynamics(data: AlmostAbelianData, k: int | None = None, gap_rtol: float = 1e-8):
    """Decompose v over eigenspaces of S; return [(lambda_i, r_i, r_i')].

    r_i = |v_i|^2 / 2 evolves by r_i' = 2 lambda_i r_i - |v|^2 r_i under the
    normalization that freezes a and A.  Components with zero projection are
    dropped.
    """
    if k is None:
        k = skt_multiplicity_k(data.a, data.A)[0]
    s = _s_matrix(data.a, data.A, k)
    vals, vecs = np.linalg.eigh(s)
    gap = gap_rtol * max(np.abs(vals).max(initial=0.0), 1e-300)
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > gap:
            clusters.append((start, i))
            start = i
    vnorm2 = float(data.v @ data.v)
    out = []
    for lo, hi in clusters:
        proj = vecs[:, lo:hi] @ (vecs[:, lo:hi].T @ data.v)
        r = 0.5 * float(proj @ proj)
        if r <= 1e-28 * max(vnorm2, 1.0):
            continue
        lam = float(vals[lo:hi].mean())
        out.append((lam, r, 2.0 * lam * r - vnorm2 * r))
    return out


@dataclass
class ReducedTrajectory:
    """Recorded reduced flow with per-state diagnostics."""

    data0: AlmostAbelianData
    k: int
    mode: str
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
    config: engine.IntegratorConfig | None = None,
) -> ReducedTrajectory:
    """Integrate the reduced flow from an SKT initial condition.

    Fixed-point early termination is left off: the asymptotic regimes are
    approached only in the limit and exact solitons must run to the horizon.
    """
    flow = ReducedFlow(data0, mode)
    raw = engine.integrate(flow.field, data0.to_state(), horizon, config)
    return ReducedTrajectory(data0=data0, k=flow.k, mode=mode, raw=raw)


@dataclass
class SolitonCertificate:
    kind: SolitonKind
    alpha: float
    derivation: np.ndarray | None
    residual: float
    eigen_lambda: float | None


def soliton_certificate(data: AlmostAbelianData, tol: float = 1e-8) -> SolitonCertificate:
    """Detect the algebraic-soliton cases: v = 0, or v an eigenvector of S
    with eigenvalue |v|^2 / 2; classify by the sign of the cosmological
    constant alpha = c.  For positive detections the derivation realizing
    P = alpha Id + sym(D) is recovered by the general least-squares fit on
    the full bracket, cross-validating the case analysis.
    """
    verdict = skt_verdict(data)
    if not verdict.is_skt:
        raise ValueError("soliton certificates require a pluriclosed structure")
    k = verdict.k
    a, v, A = data.a, data.v, data.A
    scale = max(1.0, abs(a), float(np.linalg.norm(A)), float(np.linalg.norm(v)))
    comps = p_components(data, k)
    vnorm = float(np.linalg.norm(v))
    lam_cap = _s_top(k, a)

    kind = SolitonKind.NONE
    eigen_lambda = None
    if vnorm < tol * scale:
        residual = vnorm
        if abs(a) < tol * scale:
            kind = SolitonKind.KAHLER_RICCI_FLAT
        elif k < 2:
            kind = SolitonKind.EXPANDING
        elif k == 2:
            kind = SolitonKind.STEADY
        else:
            kind = SolitonKind.SHRINKING
    else:
        s = _s_matrix(a, A, k)
        lam = 0.5 * vnorm**2
        residual = float(np.linalg.norm(s @ v - lam * v)) / max(vnorm, 1e-300)
        if residual < tol * scale**2:
            kind = SolitonKind.STEADY if abs(lam - lam_cap) < tol * scale**2 else SolitonKind.SHRINKING
            eigen_lambda = lam

    derivation = None
    if kind is not SolitonKind.NONE:
        fit = soliton_decomposition(p_matrix(data, comps), build_bracket(data), hermitian_frame(data).J)
        derivation = fit.derivation
        residual = max(residual, fit.residual)
    return SolitonCertificate(kind, comps.c, derivation, residual, eigen_lambda)


@dataclass
class ClassificationReport:
    table_case: str
    k: int
    unimodular: bool
    predicted_T: str
    predicted_limit: str
    soliton_type_at_limit: SolitonKind


def _in_image(A: np.ndarray, v: np.ndarray, rtol: float = 1e-8) -> bool:
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return True
    res = v - A @ (np.linalg.pinv(A) @ v)
    return bool(np.linalg.norm(res) / nv < rtol)


def classify(data: AlmostAbelianData, tol: float = 1e-9) -> ClassificationReport:
    """Asymptotic regime of the reduced flow by (k, a_0, v_0 vs Im A_0)."""
    verdict = skt_verdict(data)
    if not verdict.is_skt:
        raise ValueError("classification requires a pluriclosed structure")
    k = verdict.k
    a = data.a
    scale = max(1.0, float(np.linalg.norm(data.A)))
    if abs(a) < tol * scale and np.abs(data.A).max() < tol * scale:
        raise ValueError("nilpotent case (a, A) = (0, 0): use the nilpotent flow module")
    unimodular = abs(a + float(np.trace(data.A))) < tol * scale

    if k == 0:
        if abs(a) < tol * scale:
            case, t_pred, lim, kind = "i", "INFINITE", "DATA_DEPENDENT", SolitonKind.KAHLER_RICCI_FLAT
        else:
            case, t_pred, lim, kind = "ii", "INFINITE", "ZERO", SolitonKind.EXPANDING
    elif k == 1:
        case, t_pred, lim, kind = "iii", "INFINITE", "ZERO", SolitonKind.EXPANDING
    elif k == 2:
        case, t_pred, lim, kind = "iv", "INFINITE", "DATA_DEPENDENT", SolitonKind.STEADY
    elif not _in_image(data.A, data.v):
        case, t_pred, lim, kind = "v", "INFINITE", "NONZERO", SolitonKind.STEADY
    else:
        case, t_pred, lim, kind = "vi", "FINITE", "BLOWUP", SolitonKind.SHRINKING
    return ClassificationReport(case, k, unimodular, t_pred, lim, kind)


def self_similar_deviation(data: AlmostAbelianData, traj: ReducedTrajectory, alpha: float | None = None) -> float:
    """Max relative deviation of the trajectory from (1 - 2 alpha t)^(-1/2)
    scaling; |x - sigma x0| on the state (r, v) equals the one on (a, v, A)."""
    if alpha is None:
        alpha = p_components(data).c
    x0 = data.to_state()
    n0 = np.linalg.norm(x0)
    worst = 0.0
    for t, x in zip(traj.raw.times, traj.raw.states):
        sigma = (1.0 - 2.0 * alpha * float(t)) ** -0.5
        worst = max(worst, float(np.linalg.norm(x - sigma * x0)) / (sigma * n0))
    return worst
