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
    c = e @ et
    c -= et @ e
    return frobenius_norm(c)


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


def spectrum_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between the characteristic-polynomial coefficients of two
    square matrices of one size, both divided by the larger Frobenius norm.

    It is 0 exactly when the spectra agree with multiplicity.  The
    coefficients are symmetric functions of the eigenvalues, so they stay well
    conditioned at repeated eigenvalues, where eigenvalues matched one by one
    lose half their digits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"cannot compare the spectra of arrays of shapes {a.shape} and {b.shape}")
    s = max(frobenius_norm(a), frobenius_norm(b)) or 1.0
    return float(np.abs(np.poly(a / s) - np.poly(b / s)).max())


def normality_flow(e0: np.ndarray, horizon: float, config: engine.IntegratorConfig | None = None):
    """Integrate E' = 4 [E, [E, E^t]]; returns the engine trajectory plus a decoder.

    The engine gets the field's Jacobian too: near a normal limit the flow
    turns stiff, and the run switches to the Radau IIA step there."""
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

    units = np.eye(n * n).reshape(n * n, n, n)

    def jacobian(x):
        # the field's derivative along each matrix unit D: with C = [E, E^t]
        # and C' = D E^t + E D^t - D^t E - E^t D, it is 4 ([D, C] + [E, C'])
        e = x.reshape(n, n)
        et, dt = e.T, np.swapaxes(units, 1, 2)
        comm = e.dot(et) - et.dot(e)
        dcomm = units @ et + e @ dt - dt @ e - et @ units
        return (4.0 * (units @ comm - comm @ units + e @ dcomm - dcomm @ e)).reshape(n * n, n * n).T

    cfg = config or engine.IntegratorConfig(fixedpoint_norm=1e-12)
    traj = engine.integrate(field, e0.ravel(), horizon, cfg, jacobian=jacobian)
    return traj, (lambda x: x.reshape(n, n))
