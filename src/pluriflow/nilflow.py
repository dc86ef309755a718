"""Pluriclosed bracket flow on 2-step nilpotent Lie algebras.

The flow mu' = -pi(P_mu) mu is the negative gradient flow (up to time
reparameterization, after norm normalization) of F(nu) = 16 |P_nu|^2 / |nu|^4,
the squared norm of the moment map for the block-diagonal J-linear group
acting on bracket space.  P_mu is the J-invariant part of the Ricci
endomorphism projected to the complement of the center.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import subspace_angles

from . import engine
from .brackets import (
    InnerProductConvention,
    LieBracket,
    NilSolitonCertificate,
    bracket_inner_product,
    bracket_norm,
    center,
    infinitesimal_action,
    nullspace,
    soliton_decomposition,
)
from .hermitian import HermitianFrame, bismut_ricci_endomorphism, skt_residual

__all__ = [
    "NilpotentSplitting",
    "ricci_endomorphism",
    "ricci_koszul",
    "p_endomorphism_nil",
    "moment_map",
    "functional_F",
    "verify_moment_convention",
    "NilFlow",
    "integrate_nil_flow",
    "NilTrajectory",
    "gradient_equivalence_check",
    "soliton_decomposition",
    "soliton_limit_certificate",
    "NilSolitonCertificate",
    "refine_fixed_point",
]


def ricci_endomorphism(mu: LieBracket) -> np.ndarray:
    """Ricci endomorphism of the left-invariant metric of a nilpotent bracket.

    <Ric X, Y> = -1/2 sum_ij <mu(X,e_i),e_j><mu(Y,e_i),e_j>
                 + 1/4 sum_ij <mu(e_i,e_j),X><mu(e_i,e_j),Y>.
    """
    c = mu.coeffs
    m1 = np.einsum("xij,yij->xy", c, c, optimize=True)
    m2 = np.einsum("ijx,ijy->xy", c, c, optimize=True)
    return -0.5 * m1 + 0.25 * m2


def ricci_koszul(mu: LieBracket) -> np.ndarray:
    """Independent Ricci oracle via the Koszul formula and full curvature tensor.

    Valid for any unimodular metric Lie algebra; used to validate the closed
    2-step formula in tests.
    """
    d = mu.dim
    c = mu.coeffs
    # g[i, j, k] = <nabla_{e_i} e_j, e_k> = (C[i,j,k] - C[j,k,i] + C[k,i,j]) / 2
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


@dataclass(frozen=True)
class NilpotentSplitting:
    """Orthogonal splitting n = v (+) z of a 2-step nilpotent bracket, z the center."""

    bracket: LieBracket
    frame: HermitianFrame
    v_basis: np.ndarray  # (d, dim_v), orthonormal columns
    z_basis: np.ndarray  # (d, dim_z)

    @classmethod
    def from_bracket(cls, mu: LieBracket, frame: HermitianFrame, tol: float = 1e-9) -> "NilpotentSplitting":
        d = mu.dim
        zb = center(mu)
        if zb.shape[1] == d:
            raise ValueError("bracket is abelian; the flow is trivial")
        pz = zb @ zb.T
        # 2-step: the derived algebra must land in the center
        img_defect = np.abs(np.einsum("ijk,kl->ijl", mu.coeffs, np.eye(d) - pz)).max()
        scale = max(np.abs(mu.coeffs).max(), 1e-300)
        if img_defect > tol * scale:
            raise ValueError("bracket is not 2-step nilpotent (derived algebra exceeds the center)")
        jz_defect = np.abs((np.eye(d) - pz) @ frame.J @ zb).max()
        if jz_defect > tol:
            raise ValueError("complex structure does not preserve the center")
        return cls(mu, frame, nullspace(zb.T), zb)

    @property
    def dim_v(self) -> int:
        return self.v_basis.shape[1]

    def with_bracket(self, mu: LieBracket) -> "NilpotentSplitting":
        return NilpotentSplitting(mu, self.frame, self.v_basis, self.z_basis)


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


def verify_moment_convention(mu: LieBracket, rng=None, trials: int = 32) -> dict:
    """Max residual of <m(mu),A>|mu|^2 = <pi(A)mu,mu> for both pairing conventions.

    Pins the bracket-space inner product: the convention shipped as default
    must drive this residual to roundoff.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    d = mu.dim
    ric = ricci_endomorphism(mu)
    out = {}
    for conv in InnerProductConvention:
        n2 = bracket_inner_product(mu, mu, conv)
        m = (4.0 / n2) * ric
        worst = 0.0
        for _ in range(trials):
            a = rng.standard_normal((d, d))
            a = 0.5 * (a + a.T)
            lhs = float(np.sum(m * a)) * n2
            rhs = bracket_inner_product(infinitesimal_action(a, mu), mu, conv)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        out[conv] = worst
    return out


class NilFlow:
    """Vector field of the (optionally norm-normalized) nilpotent bracket flow.

    States are the isometric flat coordinates of LieBracket; the splitting
    (and hence the block structure of P) is frozen at the initial center,
    which the flow preserves.
    """

    def __init__(self, split: NilpotentSplitting, normalized: bool = False):
        self.split = split
        self.dim = split.bracket.dim
        self.normalized = normalized

    def decode(self, x: np.ndarray) -> LieBracket:
        return LieBracket.from_coords(self.dim, x)

    def field(self, x: np.ndarray) -> np.ndarray:
        mu = self.decode(x)
        p = p_endomorphism_nil(self.split, mu)
        rhs = infinitesimal_action(p, mu)
        out = -rhs.to_coords()
        if self.normalized:
            out = engine.normalize_projection(out, x)
        return out


@dataclass
class NilTrajectory:
    """Recorded nilpotent flow with per-state diagnostics."""

    flow: NilFlow
    raw: engine.Trajectory

    @property
    def times(self):
        return self.raw.times

    def brackets(self):
        return [self.flow.decode(x) for x in self.raw.states]

    def diagnostics(self) -> dict:
        """Columns: t, mu_norm, F, tr_P, center_drift, skt_residual."""
        split = self.flow.split
        z0 = split.z_basis
        rows = {"t": [], "mu_norm": [], "F": [], "tr_P": [], "center_drift": [], "skt_residual": []}
        for t, x in zip(self.raw.times, self.raw.states):
            mu = self.flow.decode(x)
            nrm = bracket_norm(mu)
            p = p_endomorphism_nil(split, mu)
            rows["t"].append(float(t))
            rows["mu_norm"].append(nrm)
            rows["F"].append(16.0 * float(np.sum(p * p)) / max(nrm, 1e-300) ** 4)
            rows["tr_P"].append(float(np.trace(p)))
            zt = center(mu)
            drift = (
                float(np.max(subspace_angles(z0, zt))) if zt.shape[1] == z0.shape[1] else np.pi / 2
            )
            rows["center_drift"].append(drift)
            rows["skt_residual"].append(skt_residual(mu, split.frame) / max(nrm, 1e-300) ** 2)
        return {k: np.array(v) for k, v in rows.items()}


def integrate_nil_flow(
    mu0: LieBracket,
    frame: HermitianFrame,
    horizon: float,
    normalization: str = "none",
    config: engine.IntegratorConfig | None = None,
) -> NilTrajectory:
    """Integrate the 2-step pluriclosed bracket flow; normalization in {'none', 'unit_norm'}."""
    split = NilpotentSplitting.from_bracket(mu0, frame)
    if normalization not in ("none", "unit_norm"):
        raise ValueError(f"unknown normalization {normalization!r}")
    normalized = normalization == "unit_norm"
    cfg = config or engine.IntegratorConfig(fixedpoint_norm=1e-10 if normalized else 0.0)
    x0 = mu0.to_coords()
    if normalized:
        n0 = np.linalg.norm(x0)
        if n0 == 0:
            raise ValueError("cannot normalize the zero bracket")
        x0 = x0 / n0
        cfg = replace(cfg, conserve_norm=1.0)
    flow = NilFlow(split, normalized=normalized)
    raw = engine.integrate(flow.field, x0, horizon, cfg)
    return NilTrajectory(flow, raw)


def gradient_equivalence_check(nu: LieBracket, split: NilpotentSplitting, h: float = 1e-6) -> dict:
    """Compare the normalized flow field with -grad F (closed form and finite differences).

    Returns the maximal pairwise angle between the three tangent fields and
    the measured ratio |grad F| / |field| (16 for the closed forms).
    """
    x = nu.to_coords()
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > 1e-9:
        raise ValueError("gradient check expects a unit-norm bracket")
    flow = NilFlow(split.with_bracket(nu), normalized=True)
    fld = flow.field(x)

    m = moment_map(nu, "gl_v_j", split)
    grad_closed = 4.0 * (
        infinitesimal_action(m, nu).to_coords() + float(np.sum(m * m)) * infinitesimal_action(np.eye(nu.dim), nu).to_coords()
    )
    if np.linalg.norm(grad_closed) < 1e-5:
        # critical point: both fields vanish and finite differences see only
        # quadrature noise, so there is no direction to compare
        return {"angle": 0.0, "ratio": 16.0, "field_norm": float(np.linalg.norm(fld)), "critical": True}

    dim = nu.dim
    grad_fd = np.zeros_like(x)

    def f_of(vec):
        mu = LieBracket.from_coords(dim, vec)
        return functional_F(split.with_bracket(mu), mu)

    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad_fd[i] = (f_of(x + e) - f_of(x - e)) / (2 * h)
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


def soliton_limit_certificate(
    nu: LieBracket,
    frame: HermitianFrame,
    split: NilpotentSplitting | None = None,
    p_matrix: np.ndarray | None = None,
) -> NilSolitonCertificate:
    """Certificate that nu is an algebraic pluriclosed soliton.

    P defaults to the nilpotent projected-Ricci form when a splitting is
    given, otherwise to the general Bismut-Ricci pipeline.
    """
    if p_matrix is None:
        if split is not None:
            p_matrix = p_endomorphism_nil(split, nu)
        else:
            p_matrix = bismut_ricci_endomorphism(nu, frame)
    return soliton_decomposition(p_matrix, nu, frame.J)


def refine_fixed_point(flow: NilFlow, x0: np.ndarray, iterations: int = 25, tol: float = 1e-13) -> np.ndarray:
    """Gauss-Newton polish of a normalized-flow fixed point on the unit sphere."""
    x = np.array(x0, dtype=float)
    x /= np.linalg.norm(x)
    n = x.size
    for _ in range(iterations):
        f = flow.field(x)
        g = np.concatenate([f, [0.5 * (np.dot(x, x) - 1.0)]])
        if np.linalg.norm(g) < tol:
            break
        jac = np.zeros((n + 1, n))
        h = 1e-7
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            jac[:n, i] = (flow.field(x + e) - flow.field(x - e)) / (2 * h)
        jac[n, :] = x
        dx, *_ = np.linalg.lstsq(jac, -g, rcond=None)
        x = x + dx
    return x / np.linalg.norm(x)
