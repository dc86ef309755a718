"""Fixed-frame Hermitian structures and the pluriclosed (SKT) condition.

The complex structure J lives on the same canonical orthonormal basis as the
brackets; the fundamental form is omega(X, Y) = <JX, Y>.  Forms are stored as
fully antisymmetric dense tensors (matrix for 2-forms, rank-3/4 tensors for
the Bismut torsion and its exterior derivative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brackets import LieBracket, bracket_inner_product, frobenius_norm

__all__ = [
    "HermitianFrame",
    "nijenhuis_residual",
    "torsion_three_form",
    "exterior_derivative_c",
    "skt_residual",
    "is_skt_general",
    "one_one_part",
    "endomorphism_from_form",
    "bismut_ricci_general",
    "bismut_ricci_endomorphism",
    "is_static",
    "generalized_kahler_check",
    "skt_closure_residual",
    "skt_closure_holds",
]

_TOL = 1e-9  # the (1,1)-type, static, SKT closure and generalized Kahler decisions, at the data's scale


@dataclass(frozen=True)
class HermitianFrame:
    """Orthogonal complex structure J with J^2 = -Id on R^(2n)."""

    J: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.J, dtype=float)
        d = j.shape[0] if j.ndim else 0
        if j.shape != (d, d) or d % 2 != 0:
            raise ValueError("J must be a square matrix of even dimension")
        # written as "not <=" so that a NaN entry fails the test
        if not np.abs(j @ j + np.eye(d)).max() <= 1e-12:
            raise ValueError("J^2 != -Id")
        if not np.abs(j.T @ j - np.eye(d)).max() <= 1e-12:
            raise ValueError("J is not orthogonal")
        object.__setattr__(self, "J", j)

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    @property
    def omega(self) -> np.ndarray:
        """Matrix W of the fundamental form, W[i, j] = omega(e_i, e_j)."""
        return self.J.T

    @classmethod
    def antidiagonal(cls, dim: int) -> "HermitianFrame":
        """Default layout J e_i = e_(2n+1-i) for i <= n (1-based)."""
        n = dim // 2
        j = np.zeros((dim, dim))
        for i in range(n):
            j[dim - 1 - i, i] = 1.0
            j[i, dim - 1 - i] = -1.0
        return cls(j)

    @classmethod
    def pairwise(cls, dim: int) -> "HermitianFrame":
        """Block layout J e_(2i) = e_(2i+1) (0-based pairs)."""
        blk = np.array([[0.0, -1.0], [1.0, 0.0]])
        j = np.zeros((dim, dim))
        for i in range(0, dim, 2):
            j[i : i + 2, i : i + 2] = blk
        return cls(j)


def nijenhuis_residual(mu: LieBracket, frame: HermitianFrame) -> float:
    """Max over basis pairs of |N_J(e_i, e_j)|; zero iff J is integrable."""
    c, j = mu.coeffs, frame.J
    n = (
        c
        + np.einsum("kl,mi,mjl->ijk", j, j, c, optimize=True)
        + np.einsum("kl,mj,iml->ijk", j, j, c, optimize=True)
        - np.einsum("mi,nj,mnk->ijk", j, j, c, optimize=True)
    )
    return float(np.sqrt((n**2).sum(axis=-1)).max())


def torsion_three_form(mu: LieBracket, frame: HermitianFrame) -> np.ndarray:
    """Bismut torsion c(X,Y,Z) = -<[JX,JY],Z> - <[JY,JZ],X> - <[JZ,JX],Y>."""
    b = np.einsum("ai,bj,abk->ijk", frame.J, frame.J, mu.coeffs, optimize=True)
    return -b - b.transpose(1, 2, 0) - b.transpose(2, 0, 1)


def exterior_derivative_c(mu: LieBracket, c3: np.ndarray) -> np.ndarray:
    """Chevalley-Eilenberg differential of a 3-form against the bracket."""
    t = np.einsum("ijm,mkl->ijkl", mu.coeffs, c3, optimize=True)
    return (
        -t
        + t.transpose(0, 2, 1, 3)
        - t.transpose(0, 2, 3, 1)
        - t.transpose(2, 0, 1, 3)
        + t.transpose(2, 0, 3, 1)
        - t.transpose(2, 3, 0, 1)
    )


def skt_residual(mu: LieBracket, frame: HermitianFrame) -> float:
    """Max coefficient of d(c); zero iff the Hermitian structure is pluriclosed."""
    c3 = torsion_three_form(mu, frame)
    return float(np.abs(exterior_derivative_c(mu, c3)).max())


def is_skt_general(mu: LieBracket, frame: HermitianFrame, tol: float = 1e-9):
    """(is_skt, residual) with residual the max coefficient of d(c).

    d(c) is quadratic in the bracket, so the verdict compares residual / |mu|^2
    (ordered-pair norm) with tol; the zero bracket is pluriclosed.
    """
    r = skt_residual(mu, frame)
    n2 = bracket_inner_product(mu, mu)
    return (n2 == 0.0 or r / n2 < tol), r


def skt_closure_residual(a: float, A: np.ndarray) -> float:
    """Frobenius norm of sym(aA + A^2 + A^t A); zero iff the matrix SKT criterion holds."""
    A = np.asarray(A, dtype=float)
    m = a * A + A @ A + A.T @ A
    return frobenius_norm(0.5 * (m + m.T))


def skt_closure_holds(a: float, A: np.ndarray) -> bool:
    """The matrix SKT criterion within _TOL.  The residual is quadratic in
    (a, A), so it is read at the data's own scale max(|a|, |A|); (0, 0) holds."""
    scale = max(abs(a), float(np.linalg.norm(A)))
    return scale == 0.0 or skt_closure_residual(a / scale, A / scale) < _TOL


def one_one_part(alpha: np.ndarray, frame: HermitianFrame) -> np.ndarray:
    """J-invariant part (1/2)(alpha(.,.) + alpha(J., J.)) of a 2-form matrix."""
    j = frame.J
    return 0.5 * (alpha + j.T @ alpha @ j)


def endomorphism_from_form(alpha: np.ndarray, frame: HermitianFrame) -> np.ndarray:
    """Solve omega(P., .) = (1/2) alpha for a (1,1)-form alpha; P commutes with J."""
    alpha = np.asarray(alpha, dtype=float)
    # linear in alpha, so read at alpha's own scale
    if np.abs(alpha - one_one_part(alpha, frame)).max() > _TOL * np.abs(alpha).max():
        raise ValueError("form is not of type (1,1)")
    return -0.5 * frame.J.T @ alpha


def _torsion_one_form(mu: LieBracket, frame: HermitianFrame) -> np.ndarray:
    # theta(X) = -1/2 ( tr(J ad_X) + tr(ad_JX) + 2 <omega, d X^flat> ),
    # evaluated on the basis; the Bismut-Ricci form is its differential.
    c, j, w = mu.coeffs, frame.J, frame.omega
    t1 = np.einsum("km,xkm->x", j, c)
    trad = np.einsum("ykk->y", c)
    t2 = trad @ j
    u = 0.5 * np.einsum("ij,ijk->k", w, c)
    return -0.5 * (t1 + t2 - 2.0 * u)


def bismut_ricci_general(mu: LieBracket, frame: HermitianFrame) -> np.ndarray:
    """Bismut-Ricci 2-form rho^B(X, Y) = -theta(mu(X, Y)) on basis pairs."""
    th = _torsion_one_form(mu, frame)
    return -np.einsum("ijk,k->ij", mu.coeffs, th)


def bismut_ricci_endomorphism(mu: LieBracket, frame: HermitianFrame) -> np.ndarray:
    """P with omega(P., .) = (1/2) (rho^B)^(1,1); drives the pluriclosed flow."""
    rho11 = one_one_part(bismut_ricci_general(mu, frame), frame)
    return endomorphism_from_form(rho11, frame)


def is_static(mu: LieBracket, frame: HermitianFrame):
    """Return alpha if (rho^B)^(1,1) = alpha * omega within _TOL |mu|^2 (rho^B
    is quadratic in mu; ordered-pair norm), else None; the zero bracket gives 0."""
    rho11 = one_one_part(bismut_ricci_general(mu, frame), frame)
    w = frame.omega
    alpha = float(np.einsum("ij,ij->", rho11, w) / np.einsum("ij,ij->", w, w))
    if np.abs(rho11 - alpha * w).max() <= _TOL * bracket_inner_product(mu, mu):
        return alpha
    return None


def generalized_kahler_check(a, v, A, J1) -> bool:
    """Compatibility with a generalized Kahler pair: matrix SKT criterion and v = 0,
    at the data's own scale: [A, J1] against max |A|, |v| against max(|a|, |A|)."""
    v = np.asarray(v, dtype=float)
    A = np.asarray(A, dtype=float)
    J1 = np.asarray(J1, dtype=float)
    if np.abs(A @ J1 - J1 @ A).max() > 1e-9 * np.abs(A).max():
        raise ValueError("A must commute with J1 (integrability of both structures)")
    return skt_closure_holds(a, A) and float(np.linalg.norm(v)) <= _TOL * max(abs(a), float(np.linalg.norm(A)))
