"""Pluriclosed bracket flow on 2-step nilpotent Lie algebras.

The flow mu' = -pi(P_mu) mu is the negative gradient flow (up to time
reparameterization, after norm normalization) of F(nu) = 16 |P_nu|^2 / |nu|^4,
the squared norm of the moment map for the block-diagonal J-linear group
acting on bracket space.  P_mu is the J-invariant part of the Ricci
endomorphism projected to the complement of the center.  NilFlow integrates
the flow on the j-map of the bracket; the dense formulas on LieBracket stay
as its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .brackets import (
    RANK_RTOL,
    LieBracket,
    bracket_inner_product,
    bracket_norm,
    center,
    infinitesimal_action,
    jacobi_residual,
    nullspace,
)
from .hermitian import HermitianFrame

__all__ = [
    "SKT_TOL",
    "NilpotentSplitting",
    "ricci_endomorphism",
    "ricci_koszul",
    "p_endomorphism_nil",
    "moment_map",
    "functional_F",
    "NilFlow",
    "integrate_nil_flow",
    "NilTrajectory",
    "gradient_equivalence_check",
    "soliton_limit_certificate",
    "NilSolitonCertificate",
    "refine_fixed_point",
]

_SQRT2 = np.sqrt(2.0)
_SPLIT_TOL = 1e-9  # relative 2-step and absolute J-invariance tolerance of the splitting
_GRAD_FD_STEP = 1e-6  # central-difference step of gradient_equivalence_check
_REFINE_ITERATIONS = 25
_FIXEDPOINT_NORM = 1e-10  # absolute |field| below which a unit-norm run ends on FIXED_POINT
_REFINE_TOL = 1e-13  # |field| plus sphere defect at which refine_fixed_point stops
SKT_TOL = 1e-8  # max |d(c)| / |mu|^2 from which flow refuses x0; check's default --tol, and sweep's
_JACOBI_TOL = 1e-8  # jacobi_residual / |mu|^2 from which integrate_nil_flow refuses mu0 as no Lie bracket
# NilFlow.skt_residual works on stacks of states whose pair matrices G fit in
# this many bytes together, and on one state at a time when a single G does not.
_SKT_BYTES = 1 << 18


def ricci_endomorphism(mu: LieBracket) -> np.ndarray:
    """Ricci endomorphism of the left-invariant metric of a nilpotent bracket.

    <Ric X, Y> = -1/2 sum_ij <mu(X,e_i),e_j><mu(Y,e_i),e_j>
                 + 1/4 sum_ij <mu(e_i,e_j),X><mu(e_i,e_j),Y>.
    """
    d = mu.dim
    c1 = mu.coeffs.reshape(d, d * d)  # [X, (i, j)]
    c2 = mu.coeffs.reshape(d * d, d)  # [(i, j), X]
    return -0.5 * c1.dot(c1.T) + 0.25 * c2.T.dot(c2)


def ricci_koszul(mu: LieBracket) -> np.ndarray:
    """Independent Ricci oracle via the Koszul formula and full curvature tensor.

    Ric(x, y) = sum_i <R(e_i, e_x) e_y, e_i> with
    R(e_i, e_x) = [nabla_{e_i}, nabla_{e_x}] - nabla_{[e_i, e_x]}.  Valid for
    any unimodular metric Lie algebra; used to validate the closed 2-step
    formula in tests.
    """
    c = mu.coeffs
    # g[i, j, k] = <nabla_{e_i} e_j, e_k> = (C[i,j,k] - C[j,k,i] + C[k,i,j]) / 2
    g = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
    nab = np.transpose(g, (0, 2, 1))  # nab[i] is the matrix of nabla_{e_i}
    # the three terms of <R(e_i, e_x) e_y, e_i>, summed over i
    first = np.einsum("iik,xky->xy", nab, nab)
    second = np.einsum("xik,iky->xy", nab, nab)
    bracket = np.einsum("ixm,miy->xy", c, nab)
    return first - second - bracket


@dataclass(frozen=True)
class NilpotentSplitting:
    """Orthogonal splitting n = v (+) z of a 2-step nilpotent bracket, z the center."""

    bracket: LieBracket
    frame: HermitianFrame
    v_basis: np.ndarray  # (d, dim_v), orthonormal columns
    z_basis: np.ndarray  # (d, dim_z)

    @classmethod
    def from_bracket(cls, mu: LieBracket, frame: HermitianFrame) -> "NilpotentSplitting":
        d = mu.dim
        zb = center(mu)
        if zb.shape[1] == d:
            raise ValueError("bracket is abelian; the flow is trivial")
        # 2-step: the derived algebra must land in the center
        c2 = mu.coeffs.reshape(d * d, d)
        img_defect = np.abs(c2 - (c2 @ zb) @ zb.T).max()
        scale = max(np.abs(mu.coeffs).max(), 1e-300)
        if img_defect > _SPLIT_TOL * scale:
            raise ValueError("bracket is not 2-step nilpotent (derived algebra exceeds the center)")
        jz = frame.J @ zb
        if np.abs(jz - zb @ (zb.T @ jz)).max(initial=0.0) > _SPLIT_TOL:
            raise ValueError("complex structure does not preserve the center")
        return cls(mu, frame, nullspace(zb.T), zb)

    @property
    def dim_v(self) -> int:
        return self.v_basis.shape[1]


def p_endomorphism_nil(split: NilpotentSplitting, mu: LieBracket | None = None) -> np.ndarray:
    """J-invariant part of Ric projected to End(v), extended by zero on z."""
    mu = split.bracket if mu is None else mu
    j = split.frame.J
    pv = split.v_basis @ split.v_basis.T
    q = pv @ ricci_endomorphism(mu) @ pv
    return 0.5 * (q - j @ q @ j)


def moment_map(mu: LieBracket, group: str, split: NilpotentSplitting | None = None) -> np.ndarray:
    """Moment map of the bracket-space action; group is 'gl' or 'gl_v_j'.

    'gl' gives (4/|mu|^2) Ric_mu; 'gl_v_j' gives (4/|mu|^2) P_mu.  Both satisfy
    <m(mu), A> = <pi(A) mu, mu> / |mu|^2 on their symmetric subalgebras.
    """
    n2 = bracket_inner_product(mu, mu)
    if n2 == 0.0:
        raise ValueError("moment map undefined for the zero bracket")
    if group == "gl":
        return (4.0 / n2) * ricci_endomorphism(mu)
    if group == "gl_v_j":
        if split is None:
            raise ValueError("gl_v_j moment map needs a splitting")
        return (4.0 / n2) * p_endomorphism_nil(split, mu)
    raise ValueError(f"unknown group {group!r}")


def functional_F(split: NilpotentSplitting, mu: LieBracket | None = None) -> float:
    """Scale-invariant functional 16 |P|^2 / |mu|^4 whose negative gradient is the flow."""
    mu = split.bracket if mu is None else mu
    n2 = bracket_inner_product(mu, mu)
    if n2 == 0.0:
        raise ValueError("functional undefined for the zero bracket")
    p = p_endomorphism_nil(split, mu)
    return 16.0 * float(np.sum(p * p)) / n2**2


@dataclass
class NilSolitonCertificate:
    alpha: float
    residual: float


class NilFlow:
    """Vector field of the (optionally norm-normalized) 2-step bracket flow.

    The flow keeps the splitting n = v (+) z, and P vanishes on z, so a bracket
    is its j-map: for each centre basis vector z_k the skew matrix j_k on v with
    <j_k x, y> = <[x, y], z_k>, taken in the splitting's orthonormal V and Z
    bases.  A state stacks the strict upper triangles of j_1, ..., j_dimz,
    scaled by sqrt(2), so its Euclidean norm is the bracket norm.
    On it Ric|_v = 1/2 sum_k j_k^2 = -1/2 s^t s, with s the j_k stacked as rows,
    P is the J_v-invariant part of Ric|_v with J_v = V^t J V, and the field is
    j_k' = j_k P + P j_k.

    The field is a few dense products with matrices built once.  The unpack
    matrix U (pairs, dim_v^2), with entries +-1/sqrt(2), takes a state's row
    for z_k to j_k, and U (I (x) J_v) takes it to j_k J_v; so one product gives
    t = [s; s J_v], and as J_v^t = -J_v,
    P = 1/2 (Ric - J_v Ric J_v) = -1/4 (s^t s + (s J_v)^t s J_v) = -1/4 t^t t.
    Since j_k is skew and P symmetric, j_k P + P j_k = j_k P - (j_k P)^t, whose
    state is the row of j_k P times 2 U^t: the field is (s P) (2 U^t).
    """

    def __init__(self, split: NilpotentSplitting, normalized: bool = False):
        self.split = split
        self.normalized = normalized
        v = split.v_basis
        self._j_v = v.T @ split.frame.J @ v
        dim_z, dim_v = split.z_basis.shape[1], split.dim_v
        self._shape = (dim_z, dim_v, dim_v)
        self._iu, self._ju = np.triu_indices(dim_v, k=1)
        pairs = np.arange(self._iu.size)
        u = np.zeros((pairs.size, dim_v, dim_v))
        u[pairs, self._iu, self._ju] = 1.0 / _SQRT2
        u[pairs, self._ju, self._iu] = -1.0 / _SQRT2
        self._unpack = u.reshape(pairs.size, -1)  # U
        # [U | U (I (x) J_v)]: a state's row for z_k goes to j_k and j_k J_v, side by side
        self._unpack_t = np.concatenate([u, u @ self._j_v], axis=1).reshape(pairs.size, -1)
        # 2 U^t, times the -1/4 of P = -1/4 t^t t that field leaves out of t^t t
        self._pack = -0.5 * self._unpack.T
        self._skt_plan = None  # (M, plan) of skt_residual, built on first use

    def encode(self, mu: LieBracket) -> np.ndarray:
        """State of a bracket; ValueError when its decoding misses mu by more than
        _SPLIT_TOL max |c|, as mu then leaves v ^ v -> z, which no state holds."""
        v, z = self.split.v_basis, self.split.z_basis
        # j[k, a, b] = <j_k v_b, v_a> = <[v_b, v_a], z_k>
        j = v.T @ (mu.coeffs @ z).transpose(2, 1, 0) @ v
        x = _SQRT2 * j[:, self._iu, self._ju].ravel()
        defect = self._coeffs(x)
        defect -= mu.coeffs
        if np.abs(defect, out=defect).max() > _SPLIT_TOL * np.abs(mu.coeffs).max():
            raise ValueError("bracket is not 2-step on the splitting (it leaves v ^ v -> z)")
        return x

    def decode(self, x: np.ndarray) -> LieBracket:
        return LieBracket(self._coeffs(x))

    def _coeffs(self, x: np.ndarray) -> np.ndarray:
        """The structure constants (d, d, d) of a state."""
        v, z = self.split.v_basis, self.split.z_basis
        return (v @ self.jmaps(x) @ v.T).transpose(2, 1, 0) @ z.T

    def jmaps(self, x: np.ndarray) -> np.ndarray:
        """The skew matrices j_k of a state (..., n) as an array (..., dim_z, dim_v, dim_v)."""
        x = np.asarray(x, dtype=float)
        return (x.reshape(-1, self._iu.size) @ self._unpack).reshape(x.shape[:-1] + self._shape)

    def p_block(self, x: np.ndarray) -> np.ndarray:
        """P on v of a state (..., n), as (..., dim_v, dim_v): the J_v-invariant
        part of Ric|_v = -1/2 s^t s, which is -1/4 t^t t with t = [s; s J_v]."""
        x = np.asarray(x, dtype=float)
        t = (x.reshape(-1, self._iu.size) @ self._unpack_t).reshape(x.shape[:-1] + (-1, self._shape[-1]))
        return -0.25 * (np.swapaxes(t, -1, -2) @ t)

    def field(self, x: np.ndarray) -> np.ndarray:
        out = self._bracket_field(x)
        if self.normalized:
            out = engine.normalize_projection(out, x)
        return out

    def _bracket_field(self, x: np.ndarray) -> np.ndarray:
        """The unnormalized field -pi(P) mu at the state x of mu."""
        dim_z, dim_v, _ = self._shape
        # ndarray.dot, not @: the same BLAS products, with less overhead per call
        t = x.reshape(dim_z, -1).dot(self._unpack_t).reshape(-1, dim_v)
        # row k holds -4 j_k P in its first dim_v^2 entries, and -4 j_k J_v P after them
        tp = t.dot(t.T.dot(t)).reshape(dim_z, -1)
        return tp[:, : dim_v * dim_v].dot(self._pack).ravel()

    def soliton_certificate(self, x: np.ndarray) -> NilSolitonCertificate:
        """Certificate -pi(P) nu = alpha nu that the bracket nu of state x is a
        soliton: with f = -pi(P) nu the unnormalized field at x, alpha = <f, x> /
        |x|^2 and the residual is |f - alpha x| / |x| (README, "The derivation space")."""
        if (n2 := float(x @ x)) == 0.0:
            return NilSolitonCertificate(alpha=0.0, residual=0.0)
        f = self._bracket_field(x)
        alpha = float(f @ x) / n2
        return NilSolitonCertificate(alpha=alpha, residual=float(np.linalg.norm(f - alpha * x) / np.sqrt(n2)))

    def skt_residual(self, states: np.ndarray) -> np.ndarray:
        """Max coefficient of d(c) on V over |x|^2 for each state of a stack (..., n).

        On a 2-step algebra with J z = z the only non-zero part of the torsion
        is c(z_k, x, y) = -<[Jx, Jy], z_k>, so d(c) lies in the 4-forms of v
        and is sum_k alpha_k ^ beta_k there, with alpha_k = -j_k and beta_k =
        J_v^t j_k J_v.  With X the state's rows and M the map from a row to
        sqrt(2) times the strict upper triangle of J_v^t j J_v, the pair matrix
        S = sum_k (a_k b_k^t + b_k a_k^t) of their strict upper triangles is
        -(G + G^t) / 2 with G = X^t (X M), and for a < b < c < d
        dc[a,b,c,d] = S[ac,bd] - S[ab,cd] - S[ad,bc].  So the six entries of
        G are gathered by a plan over the 4-subsets of v, built on first use;
        below dim_v = 4 there are none and the residual is 0.  States go
        through in stacks whose G fit _SKT_BYTES; each state's G is its own
        product, so the result does not depend on the stack size.
        """
        if self._skt_plan is None:
            self._skt_plan = self._build_skt_plan()
        m, plan = self._skt_plan
        states = np.asarray(states, dtype=float)
        flat = states.reshape(-1, states.shape[-1])
        pairs = self._iu.size
        out = np.empty(len(flat))
        stack = max(1, _SKT_BYTES // (8 * pairs**2))
        for lo in range(0, len(flat), stack):
            x = flat[lo : lo + stack].reshape(-1, self._shape[0], pairs)
            g = np.swapaxes(x, 1, 2) @ (x @ m)
            e = np.take(g.reshape(len(x), -1), plan, axis=1, mode="clip")  # plan is in range
            # -2 dc on every 4-subset; an empty plan (dim_v < 4) leaves 0
            out[lo : lo + len(x)] = np.abs(e[:, 0] + e[:, 1] - e[:, 2] - e[:, 3] - e[:, 4] - e[:, 5]).max(axis=1, initial=0.0)
            # free this stack's G and gathers before the next stack's are made:
            # both stacks' at once would set the peak memory of a run
            del g, e
        n2 = np.einsum("ti,ti->t", flat, flat)
        return (0.5 * out / np.where(n2 > 0.0, n2, 1.0)).reshape(states.shape[:-1])

    def _build_skt_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """M, and the flat indices into G of (ac, bd), (bd, ac), (ab, cd),
        (cd, ab), (ad, bc) and (bc, ad) for each 4-subset a < b < c < d of v."""
        iu, ju, dim_v = self._iu, self._ju, self._shape[-1]
        pairs = iu.size
        # J_v^t j J_v for the j of each unit row
        b = self._j_v.T @ self._unpack.reshape(pairs, dim_v, dim_v) @ self._j_v
        pair = np.zeros((dim_v, dim_v), dtype=np.intp)
        pair[iu, ju] = np.arange(pairs)
        ab, cd = np.nonzero(ju[:, None] < iu[None, :])  # pairs (a, b), (c, d) with b < c
        ac, bd = pair[iu[ab], iu[cd]], pair[ju[ab], ju[cd]]
        ad, bc = pair[iu[ab], ju[cd]], pair[ju[ab], iu[cd]]
        plan = np.stack([p * pairs + q for p, q in ((ac, bd), (bd, ac), (ab, cd), (cd, ab), (ad, bc), (bc, ad))])
        return _SQRT2 * b[:, iu, ju], plan


@dataclass
class NilTrajectory:
    """Recorded nilpotent flow with per-state diagnostics."""

    flow: NilFlow
    raw: engine.Trajectory

    @property
    def times(self):
        return self.raw.times

    def diagnostics(self) -> dict:
        """Columns: t, mu_norm, F, tr_P, center_drift, skt_residual.

        center_drift is 0 while the centre is the initial z, and pi/2 once the
        stacked j_k lose rank, i.e. a vector of v becomes central.
        """
        flow, states = self.flow, self.raw.states
        j = flow.jmaps(states)
        p = flow.p_block(states)
        nrm = np.sqrt(np.einsum("ti,ti->t", states, states))
        den = np.maximum(nrm, 1e-300)
        s = np.linalg.svd(j.reshape(len(states), -1, j.shape[-1]), compute_uv=False)
        full_rank = np.all(s > RANK_RTOL * s[:, :1], axis=1)
        return {
            "t": np.array(self.raw.times, dtype=float),
            "mu_norm": nrm,
            "F": 16.0 * np.einsum("tab,tab->t", p, p) / den**4,
            "tr_P": np.trace(p, axis1=1, axis2=2),
            "center_drift": np.where(full_rank, 0.0, np.pi / 2),
            "skt_residual": flow.skt_residual(states),
        }


def integrate_nil_flow(
    mu0: LieBracket,
    frame: HermitianFrame,
    horizon: float,
    normalization: str = "none",
    config: engine.IntegratorConfig | None = None,
) -> NilTrajectory:
    """Integrate the 2-step pluriclosed bracket flow; normalization in {'none', 'unit_norm'}.

    The Jacobi identity is read only when the splitting or NilFlow.encode
    refuses mu0, to name the refusal, and then its message wins.  A bracket
    both accept needs no check: it is v ^ v -> z up to _SPLIT_TOL, so every
    double bracket [[x, y], w] lies in [z, w] = 0 up to that tolerance.  This
    spares jacobi_residual's O(d^5) products.  x0 must then have
    NilFlow.skt_residual below SKT_TOL: the number check reports as
    dc_residual for the same bracket, so both commands give one verdict.
    """
    normalized = normalization == "unit_norm"
    try:
        flow = NilFlow(NilpotentSplitting.from_bracket(mu0, frame), normalized=normalized)
        x0 = flow.encode(mu0)
    except ValueError:
        if jacobi_residual(mu0) > _JACOBI_TOL * bracket_inner_product(mu0, mu0):
            raise ValueError("bracket violates the Jacobi identity") from None
        raise
    if normalization not in ("none", "unit_norm"):
        raise ValueError(f"unknown normalization {normalization!r}")
    cfg = config or engine.IntegratorConfig()
    if not flow.skt_residual(x0) < SKT_TOL:  # a NaN residual is refused too
        raise ValueError("initial condition is not pluriclosed")
    if normalized:
        nrm = np.linalg.norm(x0)
        if not np.isfinite(nrm):
            raise ValueError("arithmetic overflow: the bracket's norm is not finite")
        x0 = x0 / nrm
        cfg = replace(cfg, fixedpoint_norm=_FIXEDPOINT_NORM)
    raw = engine.integrate(flow.field, x0, horizon, cfg)
    return NilTrajectory(flow, raw)


def gradient_equivalence_check(nu: LieBracket, split: NilpotentSplitting) -> dict:
    """Compare the normalized flow field with -grad F (closed form and finite differences).

    The closed form is taken on the dense bracket and encoded; the finite
    differences run on the j-map state.  Returns the maximal pairwise angle
    between the three tangent fields and the measured ratio |grad F| / |field|
    (16 for the closed forms).
    """
    if abs(bracket_norm(nu) - 1.0) > 1e-9:
        raise ValueError("gradient check expects a unit-norm bracket")
    flow = NilFlow(split, normalized=True)
    x = flow.encode(nu)
    fld = flow.field(x)

    m = moment_map(nu, "gl_v_j", split)
    grad_closed = 4.0 * (
        flow.encode(infinitesimal_action(m, nu))
        + float(np.sum(m * m)) * flow.encode(infinitesimal_action(np.eye(nu.dim), nu))
    )
    if np.linalg.norm(grad_closed) < 1e-5:
        # critical point: both fields vanish and finite differences see only
        # quadrature noise, so there is no direction to compare
        return {"angle": 0.0, "ratio": 16.0, "field_norm": float(np.linalg.norm(fld)), "critical": True}

    def f_of(vec):
        p = flow.p_block(vec)
        return 16.0 * float(np.sum(p * p)) / float(np.dot(vec, vec)) ** 2

    grad_fd = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = _GRAD_FD_STEP
        grad_fd[i] = (f_of(x + e) - f_of(x - e)) / (2 * _GRAD_FD_STEP)
    # the gradient of a scale-invariant functional is tangent already; project
    # the finite-difference version to kill quadrature noise in the radial direction
    grad_fd = engine.normalize_projection(grad_fd, x)

    def angle(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        c = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
        return float(np.arccos(c))

    ang = max(angle(fld, -grad_closed), angle(fld, -grad_fd), angle(grad_closed, grad_fd))
    ratio = np.linalg.norm(grad_closed) / max(np.linalg.norm(fld), 1e-300)
    return {"angle": ang, "ratio": float(ratio), "field_norm": float(np.linalg.norm(fld)), "critical": False}


def soliton_limit_certificate(nu: LieBracket, frame: HermitianFrame, split: NilpotentSplitting) -> NilSolitonCertificate:
    """NilFlow.soliton_certificate of nu's state on split; ValueError when
    NilFlow.encode refuses nu or frame is not the splitting's."""
    if not np.array_equal(frame.J, split.frame.J):
        raise ValueError("frame's J is not the splitting's")
    flow = NilFlow(split)
    return flow.soliton_certificate(flow.encode(nu))


def refine_fixed_point(flow: NilFlow, x0: np.ndarray) -> np.ndarray:
    """Gauss-Newton polish of a normalized-flow fixed point on the unit sphere.

    x0 is a state of flow; the Jacobian is taken by central differences.
    """
    x = np.array(x0, dtype=float)
    x /= np.linalg.norm(x)
    n = x.size
    for _ in range(_REFINE_ITERATIONS):
        f = flow.field(x)
        g = np.concatenate([f, [0.5 * (np.dot(x, x) - 1.0)]])
        if np.linalg.norm(g) < _REFINE_TOL:
            break
        jac = np.zeros((n + 1, n))
        h = 1e-7
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            jac[:n, i] = (flow.field(x + e) - flow.field(x - e)) / (2 * h)
        jac[n, :] = x
        # the fixed points form orbits of the J-unitary group on v, so the
        # Jacobian is singular; in its null directions the difference quotients
        # hold only rounding noise (~1e-9 at h = 1e-7), which must not be inverted
        dx, *_ = np.linalg.lstsq(jac, -g, rcond=1e-8)
        x = x + dx
    return x / np.linalg.norm(x)
