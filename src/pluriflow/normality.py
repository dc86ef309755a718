"""Eigenvalue-norm inequalities and the normality gradient flow.

For any real square E, |E|^2 >= sum |lambda_i|^2 and |sym(E)|^2 >= sum
Re(lambda_i)^2, with equality in either exactly when E is normal.  The flow
E' = 4 [E, [E, E^t]] is the negative gradient flow of |[E, E^t]|^2; it is
isospectral and drives E to a normal limit (possibly outside the conjugation
orbit, e.g. a nilpotent Jordan block collapses to zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import engine
from .brackets import frobenius_norm

__all__ = [
    "NormalityReport",
    "normality_report",
    "normality_flow",
    "normality_defect",
    "spectrum_distance",
]


def normality_defect(e: np.ndarray):
    """Frobenius norm of [E, E^t]; a stack (..., m, m) gives an array of shape (...)."""
    e = np.asarray(e, dtype=float)
    et = np.swapaxes(e, -1, -2)
    return frobenius_norm(e @ et - et @ e)


@dataclass(frozen=True)
class NormalityReport:
    frobenius_sq: float
    eigen_abs_sq_sum: float
    sym_part_sq: float
    re_sq_sum: float
    normality_defect: float

    @property
    def frobenius_gap(self) -> float:
        return self.frobenius_sq - self.eigen_abs_sq_sum

    @property
    def sym_gap(self) -> float:
        return self.sym_part_sq - self.re_sq_sum


def normality_report(e: np.ndarray) -> NormalityReport:
    """All quantities entering the two eigenvalue-norm inequalities."""
    e = np.asarray(e, dtype=float)
    lam = np.linalg.eigvals(e)
    s = 0.5 * (e + e.T)
    return NormalityReport(
        frobenius_sq=float(np.sum(e * e)),
        eigen_abs_sq_sum=float(np.sum(np.abs(lam) ** 2)),
        sym_part_sq=float(np.sum(s * s)),
        re_sq_sum=float(np.sum(lam.real**2)),
        normality_defect=normality_defect(e),
    )


def spectrum_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Optimal-assignment distance between eigenvalue multisets."""
    la = np.linalg.eigvals(np.asarray(a, dtype=float))
    lb = np.linalg.eigvals(np.asarray(b, dtype=float))
    cost = np.abs(la[:, None] - lb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def normality_flow(e0: np.ndarray, horizon: float, config: engine.IntegratorConfig | None = None):
    """Integrate E' = 4 [E, [E, E^t]]; returns the engine trajectory plus a decoder."""
    e0 = np.asarray(e0, dtype=float)
    n = e0.shape[0]

    def field(x):
        e = x.reshape(n, n)
        comm = e @ e.T - e.T @ e
        return 4.0 * (e @ comm - comm @ e).ravel()

    cfg = config or engine.IntegratorConfig(fixedpoint_norm=1e-12)
    traj = engine.integrate(field, e0.ravel(), horizon, cfg)
    return traj, (lambda x: x.reshape(n, n))
