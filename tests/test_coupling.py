"""One coupling representation: a single potential spec times B and a
per-channel list both become terms sum_k V_k(x) B_k, so equivalent inputs
give bit-identical operators and reports."""
import numpy as np
import pytest

import bicforge as bf
from bicforge import oracle
from bicforge.errors import ModelError
from bicforge.potentials import coupling_terms

PROJ_1 = np.diag([1.0, 0.0])


def _half_b_model() -> bf.BandModel:
    # spin-orbit model with B = diag(1, 0): the scalar route couples through
    # the same projector the per-channel list [spec, None] builds
    return bf.soc_model(gamma=0.5, mu=1.0, b=PROJ_1)


def test_coupling_terms_forms():
    spec = bf.SocBic(0.5, 0.7)
    b = np.array([[1.0, 0.5], [0.5, -1.0]])
    (only,) = coupling_terms(spec, b)
    assert only[0] is spec and np.array_equal(only[1], b)
    assert coupling_terms(None, b) == []
    delta = bf.Delta(-1.0)
    terms = coupling_terms([None, spec, delta], np.eye(3))
    assert [t[0] for t in terms] == [spec, delta]
    assert np.array_equal(terms[0][1], np.diag([0.0, 1.0, 0.0]))
    assert np.array_equal(terms[1][1], np.diag([0.0, 0.0, 1.0]))
    assert coupling_terms((spec, None), b)[0][0] is spec
    with pytest.raises(ModelError):
        coupling_terms([spec], b)


@pytest.mark.parametrize("energy", [0.55, 0.6917])
def test_list_and_scalar_give_the_same_map(energy):
    model = _half_b_model()
    grid = bf.Grid.symmetric(15.0, 320)
    spec = bf.SocBic(0.5, 0.7)
    assert np.array_equal(bf.assemble_map(model, energy, grid, [spec, None]),
                          bf.assemble_map(model, energy, grid, spec))


def test_list_and_scalar_give_the_same_oracle_matrix():
    model = _half_b_model()
    grid = bf.Grid.symmetric(20.0, 256)
    for spec in (bf.SocBic(0.5, 0.7), bf.Scaled(bf.Delta(1.0), -0.8)):
        via_list = oracle.assemble(model, grid, [spec, None]).matrix
        via_scalar = oracle.assemble(model, grid, spec).matrix
        assert via_list.dtype == via_scalar.dtype
        assert np.array_equal(via_list.toarray(), via_scalar.toarray())


def test_list_and_scalar_give_the_same_report(bic_state_2048):
    model = _half_b_model()
    spec = bf.SocBic(0.5, 0.7)
    state, energy = bic_state_2048.state, bic_state_2048.energy
    via_list = bf.classify(model, state, [spec, None], energy)
    via_scalar = bf.classify(model, state, spec, energy)
    assert via_list.summary() == via_scalar.summary()
    assert via_list.peak_fourier == via_scalar.peak_fourier
    assert np.array_equal(via_list.projected_residuals, via_scalar.projected_residuals)
    for f_list, f_scalar in zip(via_list.fourier_residuals, via_scalar.fourier_residuals,
                                strict=True):
        assert np.array_equal(f_list, f_scalar)


def test_full_list_sums_channel_projectors():
    # diag(V, V) is the same coupling as V times the identity
    model = bf.soc_model(gamma=0.5, mu=1.0, b=np.eye(2))
    grid = bf.Grid.symmetric(15.0, 320)
    spec = bf.SocBic(0.5, 0.7)
    assert np.array_equal(bf.assemble_map(model, 0.6, grid, [spec, spec]),
                          bf.assemble_map(model, 0.6, grid, spec))
    assert np.array_equal(oracle.assemble(model, grid, [spec, spec]).matrix.toarray(),
                          oracle.assemble(model, grid, spec).matrix.toarray())


@pytest.mark.parametrize("pots", [[bf.SocBic(0.5, 0.7)],
                                  [bf.SocBic(0.5, 0.7), None, None]])
def test_wrong_length_list_raises_model_error(pots, bic_state_2048):
    model = bf.soc_model(gamma=0.5, mu=1.0)
    grid = bf.Grid.symmetric(30.0, 1024)
    with pytest.raises(ModelError):
        bf.find_energy(model, grid, pots, 0.67, 0.71, mesh_points=3)
    with pytest.raises(ModelError):
        bf.classify(model, bic_state_2048.state, pots, bic_state_2048.energy)
    with pytest.raises(ModelError):
        oracle.assemble(model, grid, pots)
