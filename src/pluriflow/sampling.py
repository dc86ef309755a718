"""Deterministic random generators for test sweeps and verification suites.

All constructions come with exactness guarantees: 2-step SKT brackets are
built from orthogonally-coupled Heisenberg blocks (pluriclosed for any metric
in the block-diagonal J-linear class, which the random group action ranges
over), and SKT almost-abelian data from normal J-commuting matrices with
prescribed eigenvalue real parts.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .almostabelian import AlmostAbelianData
from .brackets import LieBracket, basis_change_action
from .hermitian import HermitianFrame

_METRIC_MIX = 0.6  # spread of the random J-linear metric change on v

__all__ = [
    "realify",
    "random_unitary_commuting",
    "random_two_step_skt",
    "random_skt_almost_abelian",
    "random_generic_almost_abelian",
]


def realify(m: np.ndarray) -> np.ndarray:
    """Realification of a complex matrix: 2x2 blocks [[re, -im], [im, re]]."""
    m = np.asarray(m, dtype=complex)
    k = m.shape[0]
    out = np.zeros((2 * k, 2 * k))
    out[0::2, 0::2] = m.real
    out[1::2, 1::2] = m.real
    out[0::2, 1::2] = -m.imag
    out[1::2, 0::2] = m.imag
    return out


def random_unitary_commuting(rng, m: int) -> np.ndarray:
    """Random real orthogonal matrix commuting with the pairwise J (a realified unitary)."""
    return realify(_random_complex_unitary(rng, m // 2))


def random_two_step_skt(rng, blocks: int = 2, dim_z: int = 2):
    """Random 2-step nilpotent pluriclosed Hermitian structure.

    Returns (bracket, frame).  v carries `blocks` Heisenberg planes whose
    central values are mutually orthogonal (which makes dc vanish
    identically); a random J-linear change of metric on v then sweeps out
    the full SKT family attached to this central geometry.
    """
    if blocks > dim_z:
        raise ValueError("need dim_z >= blocks for mutually orthogonal central values")
    dim_v = 2 * blocks
    d = dim_v + dim_z
    frame = HermitianFrame.pairwise(d)
    zeta = np.linalg.qr(rng.standard_normal((dim_z, blocks)))[0]
    zeta = zeta * (0.5 + rng.random(blocks))
    t = np.zeros((d, d, d))
    for b in range(blocks):
        i, j = 2 * b, 2 * b + 1
        t[i, j, dim_v:] = zeta[:, b]
        t[j, i, dim_v:] = -zeta[:, b]
    mu = LieBracket(t)
    # metric deformation: random element of the J-linear group on v
    x = rng.standard_normal((dim_v // 2, dim_v // 2)) * _METRIC_MIX
    x = x + 1j * rng.standard_normal((dim_v // 2, dim_v // 2)) * _METRIC_MIX
    h = np.eye(d)
    h[:dim_v, :dim_v] = realify(expm(x))
    mu = basis_change_action(h, mu)
    return mu, frame


def random_skt_almost_abelian(rng, m: int = 4, allow_zero_a: bool = False) -> AlmostAbelianData:
    """Random pluriclosed (a, v, A, J1): A normal, J-commuting, eigenvalue
    real parts drawn from {0, -a/2}."""
    a = 0.0 if (allow_zero_a and rng.random() < 0.5) else float(rng.standard_normal() + np.sign(rng.standard_normal()))
    half = m // 2
    re = rng.choice([0.0, -a / 2.0], size=half)
    im = rng.standard_normal(half)
    u = _random_complex_unitary(rng, half)
    A = realify(u @ np.diag(re + 1j * im) @ u.conj().T)
    v = rng.standard_normal(m)
    return AlmostAbelianData(a, v, A, HermitianFrame.pairwise(m).J)


def random_generic_almost_abelian(rng, m: int = 4) -> AlmostAbelianData:
    """Random integrable but (almost surely) non-pluriclosed data."""
    a = float(rng.standard_normal())
    z = rng.standard_normal((m // 2, m // 2)) + 1j * rng.standard_normal((m // 2, m // 2))
    A = realify(z)
    v = rng.standard_normal(m)
    return AlmostAbelianData(a, v, A, HermitianFrame.pairwise(m).J)


def _random_complex_unitary(rng, k: int) -> np.ndarray:
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
