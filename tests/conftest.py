import numpy as np
import pytest

from pluriflow import brackets


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _soliton_fit(p, mu, j):
    """(alpha, residual) of the least-squares fit P = alpha Id + sym(D) over
    the derivations D of mu that commute with j, the residual being
    |P - alpha Id - sym(D)|: the dense oracle of both soliton certificates.
    derivation_space is looked up on its module, so a test can patch it."""
    d = mu.dim
    ders = brackets.derivation_space(mu, commute_with=j)
    a = np.array([np.eye(d).ravel()] + [(0.5 * (dm + dm.T)).ravel() for dm in ders]).T
    coef, *_ = np.linalg.lstsq(a, p.ravel(), rcond=None)
    return float(coef[0]), float(np.linalg.norm(a @ coef - p.ravel()))


@pytest.fixture
def soliton_fit():
    return _soliton_fit
