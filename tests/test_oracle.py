import numpy as np
import pytest

import bicforge as bf
from bicforge import oracle
from bicforge.errors import GridTooLarge

UNIT_DELTA = bf.Delta(1.0)


def test_single_band_delta_ground_state():
    model = bf.single_band_model(lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 4096)
    h = oracle.assemble(model, grid, UNIT_DELTA)
    assert h.hermiticity_residual() < 1e-12
    e, state = oracle.eigen_near(h, -0.5, 1)[0]
    assert e == pytest.approx(-0.5, abs=1e-2)
    loc = oracle.localization(state, 20.0)
    assert loc.tail_mass < 1e-6


def test_richardson_extrapolation_sharpens_delta_energy():
    model = bf.single_band_model(lam=-1.0)
    e_half = oracle.eigen_near(
        oracle.assemble(model, bf.Grid.symmetric(40.0, 4096), UNIT_DELTA), -0.5, 1)[0][0]
    e_full = oracle.eigen_near(
        oracle.assemble(model, bf.Grid.symmetric(40.0, 2048), UNIT_DELTA), -0.5, 1)[0][0]
    assert abs(2 * e_half - e_full + 0.5) < 1e-3


def test_free_two_band_spectrum_bounded_by_band_bottom():
    model = bf.two_band_model(mu=0.0, g=1.0)
    h = oracle.assemble(model, bf.Grid.symmetric(30.0, 1024), None)
    empty = oracle.assemble(model, bf.Grid.symmetric(30.0, 1024), [None, None])
    assert np.array_equal(empty.matrix.toarray(), h.matrix.toarray())
    vals = oracle.spectrum(h)
    assert vals.min() >= -1.0 - 1e-6
    assert vals.min() == pytest.approx(-1.0, abs=1e-2)


def test_localization_metrics_closed_forms():
    grid = bf.Grid.symmetric(20.0, 8192)
    psi = np.exp(-np.abs(grid.x))
    psi /= np.sqrt(np.sum(psi**2) * grid.dx)
    state = bf.SpinorField(grid=grid, values=psi[:, None].astype(complex))
    met = oracle.localization(state, 10.0)
    assert met.ipr == pytest.approx(0.5, abs=1e-3)

    k = 5 * np.pi / grid.x_max
    wave = np.sin(k * (grid.x - grid.x_min))
    wave /= np.sqrt(np.sum(wave**2) * grid.dx)
    met = oracle.localization(
        bf.SpinorField(grid=grid, values=wave[:, None].astype(complex)),
        grid.x_max / 2.0)
    assert met.tail_mass == pytest.approx(0.5, abs=0.02)


def test_soc_bic_embedding(e_bic):
    model = bf.soc_model(gamma=0.5, mu=1.0)
    grid = bf.Grid.symmetric(30.0, 2048)
    h = oracle.assemble(model, grid, bf.SocBic(0.5, 0.7))
    pairs = oracle.eigen_near(h, e_bic, 5)
    best_e, best_state = pairs[0]
    assert abs(best_e - e_bic) < 2e-3
    assert oracle.localization(best_state, 15.0).tail_mass < 1e-3
    for e, state in pairs[1:]:
        assert oracle.localization(state, 15.0).tail_mass > 0.3


def test_quasi_bic_has_no_localized_box_state():
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 2048)
    h = oracle.assemble(model, grid, UNIT_DELTA)
    pairs = oracle.eigen_near(h, 0.875, 7)
    for e, state in pairs:
        if abs(e - 0.875) < 0.1:
            assert oracle.localization(state, 20.0).tail_mass > 1e-3


def test_decoupled_two_band_exact_bic_agrees_with_closed_form():
    # g = 0 channel-1 well bound at mu - lam^2 m/2, embedded in channel 2
    model = bf.two_band_model(mu=0.3, g=0.0, lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 2048)
    h = oracle.assemble(model, grid, UNIT_DELTA)
    e_expect = bf.two_band_bound_energy(0.3, 0.0, -1.0, 1.0).e_b
    pairs = oracle.eigen_near(h, e_expect, 5)
    localized = [(e, st) for e, st in pairs
                 if oracle.localization(st, 20.0).tail_mass < 1e-3]
    assert localized
    e, _ = min(localized, key=lambda t: abs(t[0] - e_expect))
    dx = grid.dx
    assert abs(e - e_expect) < max(1e-2, 5 * dx)


def test_no_states_below_band_bottom():
    model = bf.two_band_model(mu=0.0, g=1.0)
    h = oracle.assemble(model, bf.Grid.symmetric(30.0, 512), None)
    pairs = oracle.eigen_near(h, -2.0, 3)
    for e, _ in pairs:
        assert e >= -1.0 - 1e-6


def test_embedding_count_grows_with_box(e_bic):
    model = bf.soc_model(gamma=0.5, mu=1.0)
    counts = {}
    for half in (15.0, 30.0):
        h = oracle.assemble(model, bf.Grid.symmetric(half, 1536), bf.SocBic(0.5, 0.7))
        vals = oracle.spectrum(h)
        counts[half] = int(np.sum((vals > e_bic - 0.1) & (vals < e_bic + 0.1)))
    assert counts[30.0] >= 1.5 * counts[15.0]


def test_dirichlet_spacing_scales_inverse_box():
    model = bf.single_band_model()
    spacing = {}
    for half in (20.0, 40.0):
        h = oracle.assemble(model, bf.Grid.symmetric(half, 1024), None)
        vals = oracle.spectrum(h)
        window = vals[(vals > 0.5) & (vals < 1.5)]
        spacing[half] = np.diff(window).mean()
    assert spacing[40.0] / spacing[20.0] == pytest.approx(0.5, abs=0.1)


def test_grid_too_large_and_k_cap():
    model = bf.two_band_model(mu=0.0, g=1.0)
    with pytest.raises(GridTooLarge):
        oracle.assemble(model, bf.Grid.symmetric(40.0, 16384), None)
    h = oracle.assemble(model, bf.Grid.symmetric(10.0, 64), None)
    with pytest.raises(ValueError):
        oracle.eigen_near(h, 0.0, 21)


def _complex_two_band():
    # mu*sigma_z + g*sigma_y: complex interband coupling, potential on channel 1
    a0 = 0.3 * bf.sigma_z() + 0.8 * bf.sigma_y()
    return bf.BandModel(2, 1.0, a0, np.zeros((2, 2)), np.diag([-1.0, 0.0]).astype(complex))


def _three_band():
    a0 = np.array([[0.4, 0.3, 0.0], [0.3, -0.2, 0.5], [0.0, 0.5, 0.1]])
    a1 = np.array([[0.2, 0.1j, 0.0], [-0.1j, 0.0, 0.3], [0.0, 0.3, -0.2]])
    return bf.BandModel(3, 1.0, a0, a1, np.diag([-1.0, 0.5, 0.0]).astype(complex))


REFERENCE_CASES = {
    "soc_real": (lambda: bf.soc_model(gamma=0.5, mu=1.0), 30.0, 512,
                 bf.SocBic(0.5, 0.7), 0.69),
    "two_band_complex": (_complex_two_band, 40.0, 512, UNIT_DELTA, 0.4),
    "three_band": (_three_band, 30.0, 384, UNIT_DELTA, 0.3),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_eigen_near_matches_dense_spectrum(case):
    make_model, half, n, pot, target = REFERENCE_CASES[case]
    h = oracle.assemble(make_model(), bf.Grid.symmetric(half, n), pot)
    assert h.matrix.dtype == (np.float64 if case == "soc_real" else np.complex128)
    assert h.hermiticity_residual() < 1e-12
    k = 7
    dense = oracle.spectrum(h)
    want = np.sort(dense[np.argsort(np.abs(dense - target), kind="stable")[:k]])
    pairs = oracle.eigen_near(h, target, k)
    got = np.array([e for e, _ in pairs])
    np.testing.assert_allclose(np.sort(got), want, rtol=0, atol=1e-10)
    assert np.all(np.diff(np.abs(got - target)) >= 0)
    for e, state in pairs:
        psi = state.values.ravel()
        assert np.sum(np.abs(psi) ** 2) * h.grid.dx == pytest.approx(1.0, abs=1e-12)
        resid = np.linalg.norm(h.matrix @ psi - e * psi)
        assert resid <= 1e-8 * np.linalg.norm(psi)
    again = [e for e, _ in oracle.eigen_near(h, target, k)]
    assert again == got.tolist()


def test_assemble_at_cap_stays_small():
    import tracemalloc

    model = bf.two_band_model(mu=0.3, g=0.8, lam=-1.0)
    grid = bf.Grid.symmetric(40.0, oracle.MAX_DENSE_DIM // 2)
    tracemalloc.start()
    try:
        h = oracle.assemble(model, grid, UNIT_DELTA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.dim == oracle.MAX_DENSE_DIM
    assert peak < 32 * 2**20


def test_eigen_near_rejects_k_below_one():
    h = oracle.assemble(bf.single_band_model(), bf.Grid.symmetric(10.0, 64), None)
    with pytest.raises(ValueError):
        oracle.eigen_near(h, 0.0, 0)


def test_rashba_zeeman_wire_bound_state_solves_and_embeds():
    # a0 = 0.3 sigma_y, a1 = 0.5 sigma_y: the sigma_y = +1 band is
    # (p + 1/2)^2/2 + 0.175 and the delta on it binds at 0.175 - 0.125 = 0.05,
    # inside the sigma_y = -1 band that starts at -0.175. The poles are not
    # symmetric under p -> -p.
    model = bf.BandModel(2, 1.0, 0.3 * bf.sigma_y(), 0.5 * bf.sigma_y(),
                         (np.eye(2) + bf.sigma_y()) / 2.0)
    pot = bf.Delta(-0.5)
    grid = bf.Grid.symmetric(80.0, 2049)
    reps = bf.find_energy(model, grid, pot, -0.4, 0.17, mesh_points=48)
    assert [r.energy for r in reps] == pytest.approx([0.05], abs=1e-9)
    br = bf.classify(model, reps[0].state, pot, reps[0].energy)
    assert br.verdict is bf.Verdict.EXACT_BIC
    near = [(e, st) for e, st in oracle.eigen_near(oracle.assemble(model, grid, pot), 0.05, 5)
            if abs(e - 0.05) < 1e-3]
    assert len(near) == 1
    assert oracle.localization(near[0][1], 40.0).tail_mass < 1e-3
