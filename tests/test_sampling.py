import numpy as np

from pluriflow import almostabelian as aa
from pluriflow.brackets import center, jacobi_residual
from pluriflow.hermitian import HermitianFrame, nijenhuis_residual, skt_residual
from pluriflow.nilflow import NilpotentSplitting
from pluriflow.sampling import (
    random_generic_almost_abelian,
    random_skt_almost_abelian,
    random_two_step_skt,
    realify,
)


def test_realify_is_algebra_morphism(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.abs(realify(a @ b) - realify(a) @ realify(b)).max() < 1e-12
    assert np.abs(realify(a.conj().T) - realify(a).T).max() < 1e-12


def test_two_step_generator_properties(rng):
    for blocks in (1, 2):
        for _ in range(10):
            mu, frame = random_two_step_skt(rng, blocks=blocks, dim_z=2)
            assert jacobi_residual(mu) < 1e-12
            assert nijenhuis_residual(mu.coeffs, frame) < 1e-12
            assert skt_residual(mu, frame) < 1e-10
            assert center(mu).shape[1] == 2
            NilpotentSplitting.from_bracket(mu, frame)  # must not raise


def test_skt_almost_abelian_generator(rng):
    for m in (2, 4, 6, 8):
        for _ in range(5):
            data = random_skt_almost_abelian(rng, m=m)
            v = aa.skt_verdict(data)
            assert v.is_skt
            assert v.residual_lemma < 1e-12


def test_generic_generator_avoids_skt(rng):
    hits = sum(aa.skt_verdict(random_generic_almost_abelian(rng, m=6)).is_skt for _ in range(30))
    assert hits == 0


def test_generators_use_the_pairwise_complex_structure(rng):
    for blocks, dim_z in ((1, 2), (2, 2), (2, 4)):
        mu, frame = random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
        assert np.array_equal(frame.J, HermitianFrame.pairwise(mu.dim).J)
    for m in (2, 4, 6):
        for data in (random_skt_almost_abelian(rng, m=m), random_generic_almost_abelian(rng, m=m)):
            assert np.array_equal(data.J1, HermitianFrame.pairwise(m).J)
