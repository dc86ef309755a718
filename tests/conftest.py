import numpy as np
import pytest

from pluriflow import brackets
from pluriflow.brackets import LieBracket
from pluriflow.sampling import random_two_step_skt


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


@pytest.fixture
def band_bracket():
    """(mu, frame): random_two_step_skt(rng 3, blocks=2, dim_z=4), whose J is
    the pairwise one, plus eps ([e5, e1] = e6) + eps ([e6, e2] = e6), 1-based,
    at eps = 1.5e-9 max |c|.  J stays integrable and the splitting still takes
    the bracket, but those two brackets leave v ^ v -> z by more than the
    1e-9 max |c| that a 2-step state may drop."""
    mu, frame = random_two_step_skt(np.random.default_rng(3), blocks=2, dim_z=4)
    eps = 1.5e-9 * np.abs(mu.coeffs).max()
    return LieBracket(mu.coeffs + LieBracket.from_entries(8, [(0, 4, 5, -eps), (1, 5, 5, -eps)]).coeffs), frame
