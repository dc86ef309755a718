"""Eigenvalue-norm inequalities and the normality gradient flow.

For any real square E, |E|^2 >= sum |lambda_i|^2 and |sym(E)|^2 >= sum
Re(lambda_i)^2, with equality in either exactly when E is normal.  The flow
E' = 4 [E, [E, E^t]] is the negative gradient flow of |[E, E^t]|^2; it is
isospectral and drives E to a normal limit (possibly outside the conjugation
orbit, e.g. a nilpotent Jordan block collapses to zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Floats for one matrix; arrays of shape (...) for a stack (..., n, n)."""

    frobenius_sq: float | np.ndarray
    eigen_abs_sq_sum: float | np.ndarray
    sym_part_sq: float | np.ndarray
    re_sq_sum: float | np.ndarray
    normality_defect: float | np.ndarray

    @property
    def frobenius_gap(self) -> float | np.ndarray:
        return self.frobenius_sq - self.eigen_abs_sq_sum

    @property
    def sym_gap(self) -> float | np.ndarray:
        return self.sym_part_sq - self.re_sq_sum


def _sum_last(x: np.ndarray, axes: int):
    """np.sum of each entry of a stack over its last `axes` axes, in the
    pairwise order np.sum takes on that entry alone."""
    s = np.sum(x.reshape(x.shape[: x.ndim - axes] + (-1,)), axis=-1)
    return float(s) if s.ndim == 0 else s


def normality_report(e: np.ndarray) -> NormalityReport:
    """All quantities entering the two eigenvalue-norm inequalities.

    A stack (..., n, n) gives one report of arrays, each entry equal to the
    single-matrix value.
    """
    e = np.asarray(e, dtype=float)
    lam = np.linalg.eigvals(e)
    s = 0.5 * (e + np.swapaxes(e, -1, -2))
    return NormalityReport(
        frobenius_sq=_sum_last(e * e, 2),
        eigen_abs_sq_sum=_sum_last(np.abs(lam) ** 2, 1),
        sym_part_sq=_sum_last(s * s, 2),
        re_sq_sum=_sum_last(lam.real**2, 1),
        normality_defect=normality_defect(e),
    )


def _min_sum_assignment(cost: list[list[float]]) -> list[int]:
    """The column of each row on a minimum-sum assignment of a square cost
    matrix of finite entries.

    Shortest augmenting paths on dual variables (D. F. Crouse, IEEE Trans.
    Aerosp. Electron. Syst. 52 (2016) 1679), step for step as
    scipy.optimize.linear_sum_assignment takes them: assignments of equal sum
    are common between real spectra, and the same steps pick the same one.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        rows_seen, cols_seen = set(), []
        remaining = list(range(n - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows_seen.add(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                # among equal lows, prefer a free column: it ends the path
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    index, lowest = it, shortest[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen - {cur}:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:  # flip the assignment along the path
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def spectrum_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest eigenvalue gap on a minimum-sum assignment between the spectra
    of two square matrices of one size."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"cannot match the spectra of matrices of shapes {a.shape} and {b.shape}")
    la = np.linalg.eigvals(a)
    lb = np.linalg.eigvals(b)
    cost = np.abs(la[:, None] - lb[None, :])
    cols = _min_sum_assignment(cost.tolist())
    return float(cost[range(len(cols)), cols].max())


def normality_flow(e0: np.ndarray, horizon: float, config: engine.IntegratorConfig | None = None):
    """Integrate E' = 4 [E, [E, E^t]]; returns the engine trajectory plus a decoder."""
    e0 = np.asarray(e0, dtype=float)
    n = e0.shape[0]

    def field(x):
        e = x.reshape(n, n)
        et = e.T
        comm = e.dot(et) - et.dot(e)
        p = e.dot(comm)
        p -= comm.dot(e)
        p *= 4.0
        return p.ravel()

    cfg = config or engine.IntegratorConfig(fixedpoint_norm=1e-12)
    traj = engine.integrate(field, e0.ravel(), horizon, cfg)
    return traj, (lambda x: x.reshape(n, n))
