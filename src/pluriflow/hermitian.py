"""Fixed-frame Hermitian structures and the pluriclosed (SKT) condition.

The complex structure J lives on the same canonical orthonormal basis as the
brackets; the fundamental form is omega(X, Y) = <JX, Y>.  Forms are stored as
fully antisymmetric dense tensors: a matrix for 2-forms, a rank-3 tensor for
the Bismut torsion.  Its exterior derivative is a rank-4 tensor only in the
oracle exterior_derivative_c; skt_residual reads it one (d, d, d) slice at a
time.  check reads skt_residual only on a bracket that the 2-step state
(nilflow.NilFlow.encode) refuses; on one it takes, d(c) is read off the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brackets import LieBracket, frobenius_norm

__all__ = [
    "HermitianFrame",
    "nijenhuis_residual",
    "torsion_three_form",
    "exterior_derivative_c",
    "skt_residual",
    "one_one_part",
    "endomorphism_from_form",
    "bismut_ricci_general",
    "bismut_ricci_endomorphism",
    "skt_closure_residual",
    "skt_closure_holds",
]

_TOL = 1e-9  # the (1,1)-type and SKT closure decisions, at the data's scale


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


def nijenhuis_residual(c: np.ndarray, frame: HermitianFrame) -> float:
    """Max over basis pairs of |N_J(e_i, e_j)| for the structure constants c
    (d, d, d), antisymmetric in the first two axes (LieBracket.coeffs, or a
    multiple of them); zero iff J is integrable.

    N_J is read one first index i at a time, with no (d, d, d) temporary.  Each
    J-term contracts two of c's indices with J: the first by a row of jt, the
    middle one by jt.dot, the last by .dot(jt).  The per-i maxima go to an
    array, whose max propagates a NaN as skt_residual's does.
    """
    jt = frame.J.T
    d = c.shape[0]
    flat_c = c.reshape(d, d * d)
    peaks = np.empty(d)
    for i in range(d):
        z = jt[i].dot(flat_c).reshape(d, d)  # z[n,k] = sum_m J[m,i] c[m,n,k]
        n = c[i] + z.dot(jt) + jt.dot(c[i]).dot(jt) - jt.dot(z)
        peaks[i] = np.sqrt((n**2).sum(axis=-1)).max()
    return float(peaks.max())


def torsion_three_form(mu: LieBracket, frame: HermitianFrame) -> np.ndarray:
    """Bismut torsion c(X,Y,Z) = -<[JX,JY],Z> - <[JY,JZ],X> - <[JZ,JX],Y>."""
    d, jt = mu.dim, frame.J.T
    z = jt.dot(mu.coeffs.reshape(d, d * d)).reshape(d, d, d)  # z[i,b,k] = sum_a J[a,i] c[a,b,k]
    b = np.matmul(jt, z)  # b[i,j,k] = sum_b J[b,j] z[i,b,k] = <[J e_i, J e_j], e_k>
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
    """Max coefficient of d(c); zero iff the Hermitian structure is pluriclosed.

    d(c) is read one first index i at a time, so no (d, d, d, d) array is
    formed.  With t as in exterior_derivative_c, its six terms read t with i
    in slot 0 or slot 2: s0 = t[i] and s2 = t[:, :, i], each one matrix
    product, added in the same order.  The per-i maxima go to an array, whose
    max propagates a NaN as the dense max does.
    """
    c = mu.coeffs
    c3 = torsion_three_form(mu, frame)
    d = mu.dim
    flat_c, flat_c3 = c.reshape(d * d, d), c3.reshape(d, d * d)
    peaks = np.empty(d)
    for i in range(d):
        s0 = c[i].dot(flat_c3).reshape(d, d, d)
        s2 = flat_c.dot(c3[:, i, :]).reshape(d, d, d)
        dc = (
            -s0
            + s0.transpose(1, 0, 2)
            - s0.transpose(1, 2, 0)
            - s2
            + s2.transpose(0, 2, 1)
            - s2.transpose(2, 0, 1)
        )
        peaks[i] = np.abs(dc).max()
    return float(peaks.max())


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

