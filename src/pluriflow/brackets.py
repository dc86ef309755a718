"""Structure-constant tensor algebra on a fixed real vector space.

A Lie bracket on R^d is stored as the dense tensor C[i, j, k] = <mu(e_i, e_j), e_k>,
antisymmetric in (i, j).  The canonical basis is orthonormal; all group and
Lie-algebra actions on brackets are written against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .serialize import json_int, json_number

__all__ = [
    "InnerProductConvention",
    "DEFAULT_CONVENTION",
    "LieBracket",
    "bracket_eval",
    "jacobi_residual",
    "basis_change_action",
    "infinitesimal_action",
    "bracket_inner_product",
    "bracket_norm",
    "center",
    "derivation_space",
    "nullspace",
    "frobenius_sq",
    "frobenius_norm",
]

# Relative singular-value cutoff for all numerical rank decisions.
RANK_RTOL = 1e-9


class InnerProductConvention(enum.Enum):
    """Pairing convention for the inner product on bracket space.

    ORDERED_PAIRS sums the coefficient products over all ordered index pairs
    (i, j); UNORDERED_PAIRS only over i < j, i.e. half the ordered value.
    """

    ORDERED_PAIRS = "ordered"
    UNORDERED_PAIRS = "unordered"


# Pinned so that the moment map m(mu) = (4/|mu|^2) Ric(mu) satisfies the
# defining identity <m(mu), A> |mu|^2 = <pi(A) mu, mu>.  The unordered
# convention fails that identity by a factor of two (see tests).
DEFAULT_CONVENTION = InnerProductConvention.ORDERED_PAIRS


@dataclass(frozen=True)
class LieBracket:
    """Antisymmetric bilinear map R^d x R^d -> R^d given by structure constants."""

    coeffs: np.ndarray  # shape (d, d, d), antisymmetric in the first two axes

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure tensor must be (d, d, d), got {c.shape}")
        skew = np.abs(c + c.transpose(1, 0, 2)).max()
        scale = max(1.0, np.abs(c).max())
        if not skew <= 1e-12 * scale:  # a NaN defect fails too
            raise ValueError(f"structure tensor not antisymmetric (defect {skew:g})")
        # re-symmetrize so antisymmetry holds to the last bit
        object.__setattr__(self, "coeffs", 0.5 * (c - c.transpose(1, 0, 2)))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "LieBracket":
        return cls(np.zeros((dim, dim, dim)))

    @classmethod
    def from_entries(cls, dim, entries) -> "LieBracket":
        """Build from sparse entries [(i, j, k, c)] with 0-based i < j."""
        t = np.zeros((dim, dim, dim))
        for i, j, k, c in entries:
            if not 0 <= i < j < dim or not 0 <= k < dim:
                raise ValueError(f"bad entry indices ({i}, {j}, {k}) for dim {dim}")
            t[i, j, k] += c
            t[j, i, k] -= c
        return cls(t)

    def __call__(self, x, y):
        return bracket_eval(self, x, y)

    # --- JSON interchange -------------------------------------------------
    # {"dim": d, "entries": [{"i": i, "j": j, "k": k, "c": c}, ...]} with
    # 1-based indices and i < j.

    def to_json_dict(self) -> dict:
        iu, ju = np.triu_indices(self.dim, k=1)
        entries = []
        for i, j in zip(iu, ju):
            for k in range(self.dim):
                c = self.coeffs[i, j, k]
                if c != 0.0:
                    entries.append({"i": int(i) + 1, "j": int(j) + 1, "k": int(k) + 1, "c": float(c)})
        return {"dim": self.dim, "entries": entries}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LieBracket":
        dim = json_int(obj["dim"], "dim")
        if dim <= 0 or dim % 2 != 0:
            raise ValueError(f"dim must be a positive even integer, got {dim}")
        entries = []
        for e in obj.get("entries", []):
            i, j, k = json_int(e["i"], "i"), json_int(e["j"], "j"), json_int(e["k"], "k")
            c = json_number(e["c"], "c")
            if not 1 <= i < j <= dim:
                raise ValueError(f"entry requires 1 <= i < j <= dim, got i={i}, j={j}")
            if not 1 <= k <= dim:
                raise ValueError(f"entry index k={k} out of range")
            entries.append((i - 1, j - 1, k - 1, c))
        return cls.from_entries(dim, entries)


def bracket_eval(mu: LieBracket, x, y) -> np.ndarray:
    """Evaluate mu(x, y) for vectors x, y of length dim."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (mu.dim,) or y.shape != (mu.dim,):
        raise ValueError(f"vectors must have length {mu.dim}")
    return np.einsum("ijk,i,j->k", mu.coeffs, x, y)


def jacobi_residual(mu: LieBracket) -> float:
    """Max over basis triples of |mu(mu(e_i,e_j),e_k) + cyclic|."""
    c = mu.coeffs
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.sqrt((cyc**2).sum(axis=-1)).max())


def basis_change_action(h: np.ndarray, mu: LieBracket) -> LieBracket:
    """Change-of-basis action (h . mu)(x, y) = h mu(h^-1 x, h^-1 y)."""
    h = np.asarray(h, dtype=float)
    hinv = np.linalg.inv(h)
    d = mu.dim
    # new[a, b, k] = sum hinv[i, a] hinv[j, b] mu[i, j, m] h[k, m], contracted
    # over i, then j, then m as three matrix products
    t = mu.coeffs.transpose(1, 2, 0).reshape(d * d, d) @ hinv  # [(j, m), a]
    t = t.reshape(d, d, d).transpose(2, 1, 0).reshape(d * d, d) @ hinv  # [(a, m), b]
    t = t.reshape(d, d, d).transpose(0, 2, 1).reshape(d * d, d) @ h.T  # [(a, b), k]
    return LieBracket(t.reshape(d, d, d))


def infinitesimal_action(a: np.ndarray, mu: LieBracket) -> LieBracket:
    """pi(A) mu (x, y) = A mu(x,y) - mu(Ax, y) - mu(x, Ay)."""
    a = np.asarray(a, dtype=float)
    c = mu.coeffs
    out = (
        np.einsum("km,ijm->ijk", a, c)
        - np.einsum("mi,mjk->ijk", a, c)
        - np.einsum("mj,imk->ijk", a, c)
    )
    return LieBracket(out)


def bracket_inner_product(
    mu: LieBracket,
    nu: LieBracket,
    convention: InnerProductConvention = DEFAULT_CONVENTION,
) -> float:
    if mu.dim != nu.dim:
        raise ValueError("brackets must share the same dimension")
    full = float(np.einsum("ijk,ijk->", mu.coeffs, nu.coeffs))
    if convention is InnerProductConvention.UNORDERED_PAIRS:
        return 0.5 * full
    return full


def bracket_norm(mu: LieBracket, convention: InnerProductConvention = DEFAULT_CONVENTION) -> float:
    return float(np.sqrt(bracket_inner_product(mu, mu, convention)))


def nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of m.

    A tall or square m has a square V already in its economy SVD, which skips
    the rows x rows U of the full one.  A wide m has fewer singular values than
    columns, so only the full SVD completes V to the whole domain.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    if s.size == 0 or s[0] == 0.0:
        return np.eye(m.shape[1])
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return vt[rank:].T.copy()


def frobenius_sq(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm over the last two axes of a stack (..., m, n).

    Each entry is one dot product of a matrix's entries with themselves, the
    BLAS ddot that np.linalg.norm takes on a single matrix, so it equals the
    single-matrix value bit for bit; a sum over axes adds in another order.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(x.shape[:-2] + (1, -1))
    return (flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]


def frobenius_norm(x: np.ndarray):
    """Frobenius norm over the last two axes, equal bit for bit to
    np.linalg.norm of each matrix: a float for one matrix, an array for a
    stack (..., m, n)."""
    norms = np.sqrt(frobenius_sq(x))
    return float(norms) if norms.ndim == 0 else norms


def center(mu: LieBracket) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of x -> mu(x, .)."""
    d = mu.dim
    m = mu.coeffs.transpose(1, 2, 0).reshape(d * d, d)
    return nullspace(m)


def derivation_space(mu: LieBracket, commute_with: np.ndarray):
    """Orthonormal (Frobenius) basis of {D : pi(D) mu = 0, [D, J] = 0}.

    Returns a list of (d, d) matrices.  The matrices that commute with
    J = commute_with (an orthogonal complex structure) are the range of the
    projector X -> (X - J X J) / 2, which is (I - J kron J^t) / 2 on row-major
    vec; its eigenvectors of eigenvalue 1 are an orthonormal basis of them.  D
    is the null space, in that basis, of the action matrix whose column (a, b)
    is pi(E_ab) mu.  Every row is linear in mu, so the relative RANK_RTOL
    cutoff does not depend on the scale of mu.  No certificate calls it: it is
    the tests' oracle, kept here while the benchmark's tracer wraps it by name
    (ROADMAP, item 2).
    """
    d = mu.dim
    j = np.asarray(commute_with, dtype=float)
    eye = np.eye(d)
    if not np.abs(np.stack([j @ j + eye, j.T @ j - eye])).max() <= 1e-12:
        raise ValueError("commute_with must be an orthogonal J with J^2 = -Id")
    w, v = np.linalg.eigh(0.5 * (np.eye(d * d) - np.kron(j, j.T)))
    basis = v[:, w > 0.5]
    c = mu.coeffs
    action = (
        np.einsum("ka,ijb->ijkab", eye, c)
        - np.einsum("bi,ajk->ijkab", eye, c)
        - np.einsum("bj,iak->ijkab", eye, c)
    ).reshape(d**3, d * d)
    return list((basis @ nullspace(action @ basis)).T.reshape(-1, d, d))
