import numpy as np
import pytest

import bicforge as bf
from bicforge.criterion import Verdict, _standing_projectors
from bicforge.errors import GridTooCoarse, WindowTooShort

Q = 2.0632495726496685
UNIT_DELTA = bf.Delta(1.0)


def test_fourier_residual_at_pole_and_generic(bic_state_4096, soc, socbic_pot):
    state = bic_state_4096.state
    peak = bf.peak_fourier_norm(state, socbic_pot, soc.b, 4 * Q)
    at_pole = np.linalg.norm(bf.fourier_residual(state, socbic_pot, soc.b, Q))
    generic = np.linalg.norm(bf.fourier_residual(state, socbic_pot, soc.b, 1.0))
    assert at_pole / peak < 1e-3
    assert generic / peak > 0.05


def test_fourier_residual_zero_potential(quasi_state_2049):
    _, state = quasi_state_2049
    zero = bf.Tabulated(x=np.array([-50.0, 50.0]), v=np.array([0.0, 0.0]))
    f = bf.fourier_residual(state, zero, np.eye(2), 1.0)
    assert np.allclose(f, 0.0)


def test_fourier_residual_grid_too_coarse(quasi_state_2049):
    _, state = quasi_state_2049
    q_bad = 0.6 / state.grid.dx
    with pytest.raises(GridTooCoarse):
        bf.fourier_residual(state, UNIT_DELTA, np.eye(2), q_bad)


def test_conjugate_symmetry(quasi_state_2049):
    sol, state = quasi_state_2049
    b = np.array([[-1.0, 0.0], [0.0, 0.0]])
    for q in (0.7, 1.9364916731, 3.3):
        fp = bf.fourier_residual(state, UNIT_DELTA, b, q)
        fm = bf.fourier_residual(state, UNIT_DELTA, b, -q)
        assert np.allclose(fm, fp.conj(), atol=1e-12 * max(1, np.abs(fp).max()))


def test_fourier_residual_array_q_matches_scalar_calls(quasi_state_2049):
    _, state = quasi_state_2049
    b = np.array([[-1.0, 0.0], [0.0, 0.0]])
    qs = np.linspace(-3.3, 3.3, 7)
    many = bf.fourier_residual(state, UNIT_DELTA, b, qs)
    assert many.shape == (7, 2)
    for q, row in zip(qs, many):
        assert np.array_equal(row, bf.fourier_residual(state, UNIT_DELTA, b, q))
    grid_q = bf.fourier_residual(state, UNIT_DELTA, b, qs[:6].reshape(2, 3))
    assert np.array_equal(grid_q, many[:6].reshape(2, 3, 2))
    # one coarse frequency in the array is refused like a single one
    with pytest.raises(GridTooCoarse):
        bf.fourier_residual(state, UNIT_DELTA, b, np.append(qs, 0.6 / state.grid.dx))


def test_tail_metrics_quasi_state(quasi_state_2049):
    sol, state = quasi_state_2049
    osc, _ = bf.tail_metrics(state, sol.p_real, 12.0)
    assert osc / state.peak_amplitude() > 0.1


def test_tail_metrics_bic_state(bic_state_4096):
    osc, rate = bf.tail_metrics(bic_state_4096.state, Q, 5.0)
    assert osc / bic_state_4096.state.peak_amplitude() < 1e-3
    assert abs(rate - 0.7) < 0.035


def test_tail_metrics_pure_exponential():
    grid = bf.Grid.symmetric(14.0, 2048)
    state = bf.SpinorField(grid=grid,
                           values=np.exp(-np.abs(grid.x))[:, None].astype(complex))
    osc, rate = bf.tail_metrics(state, 2.0, 2.0)
    assert osc < 1e-10
    assert rate == pytest.approx(1.0, abs=1e-3)


def test_tail_metrics_window_too_short(quasi_state_2049):
    _, state = quasi_state_2049
    with pytest.raises(WindowTooShort):
        bf.tail_metrics(state, 0.1, state.grid.x_max - 1.0)


def test_classify_exact_bic(bic_state_4096, soc, socbic_pot):
    br = bf.classify(soc, bic_state_4096.state, socbic_pot, bic_state_4096.energy)
    assert br.verdict is Verdict.EXACT_BIC
    assert br.residual_rel < 1e-3
    assert br.tail_rel < 1e-3
    assert np.allclose(np.abs(br.real_poles), 2.06325, atol=1e-4)


def test_classify_quasi_bic(quasi_state_2049):
    sol, state = quasi_state_2049
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    br = bf.classify(model, state, UNIT_DELTA, sol.e_b)
    assert br.verdict is Verdict.QUASI_BIC
    assert br.residual_rel > 0.05
    assert br.tail_rel > 0.1


def test_classify_conventional():
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-5.0)
    sol = bf.two_band_solution(0.0, 1.0, -5.0, 1.0)
    state = sol.field_on(bf.Grid.symmetric(40.0, 2049))
    br = bf.classify(model, state, UNIT_DELTA, sol.e_b)
    assert br.verdict is Verdict.CONVENTIONAL
    assert br.real_poles.size == 0


def test_classify_extended_region():
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    state = bf.two_band_solution(0.0, 1.0, -1.0, 1.0).field_on(
        bf.Grid.symmetric(40.0, 513))
    br = bf.classify(model, state, UNIT_DELTA, 2.5)
    assert br.verdict is Verdict.EXTENDED


def test_multiband_matches_scalar_route(bic_state_4096, soc, socbic_pot):
    scalar = bf.classify(soc, bic_state_4096.state, socbic_pot, bic_state_4096.energy)
    diag = bf.multiband_criterion(soc, bic_state_4096.state, [socbic_pot, None],
                                  bic_state_4096.energy)
    assert diag.verdict is scalar.verdict is Verdict.EXACT_BIC
    assert diag.residual_rel == pytest.approx(scalar.residual_rel, rel=1e-9)


def _three_band_model(eps: float) -> bf.BandModel:
    a0 = np.array([[2.0, eps, 0.0], [eps, 0.0, 0.0], [0.0, 0.0, -0.5]],
                  dtype=complex)
    return bf.BandModel(3, 1.0, a0, np.zeros((3, 3)), np.zeros((3, 3)))


def test_multiband_decoupled_exact_bic():
    # bound state in a shifted channel, embedded in two open channels;
    # with no interchannel coupling the propagated residuals are exactly zero
    model = _three_band_model(0.0)
    grid = bf.Grid.symmetric(40.0, 1025)
    pots = [bf.Delta(-1.0), None, None]
    reps = bf.find_energy(model, grid, pots, 1.2, 1.8, mesh_points=15)
    rep = reps[0]
    assert rep.energy == pytest.approx(1.5, abs=1e-9)
    br = bf.multiband_criterion(model, rep.state, pots, rep.energy)
    assert br.verdict is Verdict.EXACT_BIC
    # open-channel source components are identically zero; the propagated
    # residual only carries machine noise from the pole locations
    for f_p in br.fourier_residuals:
        assert f_p[1] == 0.0 and f_p[2] == 0.0
    assert br.projected_residuals.max() < 1e-12 * br.peak_fourier


def test_multiband_coupled_quasi_bic():
    model = _three_band_model(0.15)
    grid = bf.Grid.symmetric(40.0, 1025)
    pots = [bf.Delta(-1.0), None, None]
    reps = bf.find_energy(model, grid, pots, 1.2, 1.8, mesh_points=15)
    br = bf.multiband_criterion(model, reps[0].state, pots, reps[0].energy)
    assert br.verdict is Verdict.QUASI_BIC
    assert br.projected_residuals.max() > 0.0
    assert br.residual_rel > 1e-3


def test_standing_projectors_close_pole_pairs_without_linear_term(soc, e_bic):
    # two real pole pairs 0.01 apart: the computed roots +p and -p differ
    # by about 2e-13, and (i/2)(R_+ + R_-) picks that up at about 1e-11 of
    # the sine matrix although it vanishes exactly without a linear term
    a0 = np.array([[-0.37132696136002763, 0.4945804911271288, 0.039918676391265256],
                   [0.4945804911271288, -0.5236610873611787, 0.0406087068297624],
                   [0.039918676391265256, 0.0406087068297624, -0.9521790498980919]])
    model = bf.BandModel(3, 1.0, a0, np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0]))
    projectors = _standing_projectors(model, -0.21089568642655498)
    assert sorted(projectors) == pytest.approx([1.21214, 1.22216], abs=1e-5)
    assert all(len(mats) == 1 for mats in projectors.values())
    # with the linear term the cos*sign matrix is genuine and stays
    assert [len(mats) for mats in _standing_projectors(soc, e_bic).values()] == [2]


def test_refinement_monotonicity(bic_state_2048, bic_state_4096, soc, socbic_pot):
    b2 = bf.classify(soc, bic_state_2048.state, socbic_pot, bic_state_2048.energy)
    b4 = bf.classify(soc, bic_state_4096.state, socbic_pot, bic_state_4096.energy)
    assert b4.residual_rel < b2.residual_rel


def test_perturbation_sensitivity(bic_state_4096, soc, socbic_pot, grid_30_4096):
    base = bf.classify(soc, bic_state_4096.state, socbic_pot, bic_state_4096.energy)
    scaled = bf.Scaled(socbic_pot, 1.1)
    reps = bf.find_energy(soc, grid_30_4096, scaled, 0.45, 0.85, mesh_points=25,
                          scan_grid=bf.Grid.symmetric(30.0, 1024))
    worst = min(
        (bf.classify(soc, r.state, scaled, r.energy) for r in reps),
        key=lambda b: b.residual_rel)
    assert worst.verdict is Verdict.QUASI_BIC
    assert worst.residual_rel >= 10.0 * base.residual_rel


def test_criterion_tail_equivalence(bic_state_4096, quasi_state_2049, soc, socbic_pot):
    # small Fourier residual iff small fitted tail, across the shipped states
    cases = []
    br = bf.classify(soc, bic_state_4096.state, socbic_pot, bic_state_4096.energy)
    cases.append(br)
    sol, state = quasi_state_2049
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    cases.append(bf.classify(model, state, UNIT_DELTA, sol.e_b))
    for br in cases:
        residual_small = br.residual_rel < 1e-3
        tail_small = br.tail_rel < 1e-2
        assert residual_small == tail_small


def test_scan_scale_minimum_at_unity(soc):
    table = bf.scan_parameter(
        lambda v: soc,
        lambda v: bf.Scaled(bf.SocBic(0.5, 0.7), v),
        "scale", 0.8, 1.2, 41,
        grid=bf.Grid.symmetric(30.0, 1024),
        e_window=lambda v: (0.45, 0.9),
        scan_grid=bf.Grid.symmetric(30.0, 512),
        mesh_points=12)
    assert len(table.rows) == 41
    res = [r.residual_rel for r in table.rows]
    i_min = int(np.argmin(res))
    params = [r.param for r in table.rows]
    assert abs(params[i_min] - 1.0) <= 0.01 + 1e-12  # within one step
    assert i_min in table.minima
    verdicts = {r.param: r.verdict for r in table.rows}
    assert verdicts[1.0] == "ExactBIC"
    assert verdicts[0.8] == "QuasiBIC" and verdicts[1.2] == "QuasiBIC"


def test_scan_nu_all_admissible_values_host_exact_bic(soc):
    # the well family hosts an embedded state at every admissible nu tested
    table = bf.scan_parameter(
        lambda v: soc,
        lambda v: bf.SocBic(0.5, v),
        "nu", 0.45, 0.85, 5,
        grid=bf.Grid.symmetric(30.0, 2048),
        e_window=lambda v: tuple(np.add(bf.e_bic_analytic(0.5, v, 1.0), (-0.05, 0.05))),
        scan_grid=bf.Grid.symmetric(30.0, 512),
        mesh_points=7)
    assert len(table.rows) == 5
    assert all(r.verdict == "ExactBIC" for r in table.rows)


def test_scan_records_errors_and_continues(soc):
    # nu >= mu/gamma = 2 makes the embedded energy complex: row errors out
    table = bf.scan_parameter(
        lambda v: soc,
        lambda v: bf.SocBic(0.5, v),
        "nu", 0.7, 2.1, 3,
        grid=bf.Grid.symmetric(30.0, 1024),
        e_window=lambda v: tuple(np.add(bf.e_bic_analytic(0.5, v, 1.0), (-0.05, 0.05))),
        scan_grid=bf.Grid.symmetric(30.0, 512),
        mesh_points=5)
    assert len(table.rows) == 3
    assert table.rows[0].error is None
    assert table.rows[-1].error is not None
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "param,energy,residual_rel,tail_rel,verdict"
    assert "Error(" in csv_text


def test_scan_empty():
    table = bf.scan_parameter(lambda v: None, lambda v: None, "x", 0.0, 1.0, 0,
                              grid=bf.Grid.symmetric(10.0, 64),
                              e_window=(0.0, 1.0))
    assert table.rows == ()
    assert table.to_csv().strip() == "param,energy,residual_rel,tail_rel,verdict"


def _full_grid_peak(state, potential, b, q_max, samples=512):
    """max |F_q| with the phase sum over every grid point."""
    from bicforge.criterion import _source_values
    src = _source_values(state, potential, b)
    qs = np.linspace(0.0, q_max, samples)
    phases = np.exp(-1j * np.outer(qs, state.grid.x))
    return float(np.linalg.norm(phases @ (src * state.grid.weights[:, None]), axis=1).max())


def test_peak_fourier_norm_of_delta_is_bit_equal_to_full_grid_sum(quasi_state_2049):
    _, state = quasi_state_2049
    b = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0).b
    for q_max in (0.5, 4 * Q, 20.0):
        got = bf.peak_fourier_norm(state, UNIT_DELTA, b, q_max)
        assert got > 0
        assert got == _full_grid_peak(state, UNIT_DELTA, b, q_max)


def test_peak_fourier_norm_of_compact_box_matches_full_grid_sum():
    grid = bf.Grid.symmetric(30.0, 2048)
    rng = np.random.default_rng(12)
    for _ in range(10):
        lo = rng.uniform(-20.0, 15.0)
        xs = np.linspace(lo, lo + rng.uniform(0.5, 5.0), 40)
        vs = rng.normal(size=40)
        vs[0] = vs[-1] = 0.0
        # zero out to beyond the grid on both sides
        box = bf.Tabulated(np.r_[-31.0, xs, 31.0], np.r_[0.0, vs, 0.0])
        values = rng.normal(size=(grid.n_points, 2)) + 1j * rng.normal(size=(grid.n_points, 2))
        state = bf.SpinorField(grid=grid, values=values)
        b = np.array([[1.0, 0.3], [0.3, 0.0]], dtype=complex)
        want = _full_grid_peak(state, box, b, 8.0)
        assert bf.peak_fourier_norm(state, box, b, 8.0) == pytest.approx(want, rel=1e-14)


def test_peak_fourier_norm_of_socbic_source_sums_every_row(bic_state_4096, soc, socbic_pot):
    from bicforge.criterion import _source_values
    state = bic_state_4096.state
    assert (np.abs(_source_values(state, socbic_pot, soc.b)).max(axis=1) > 0).all()
    got = bf.peak_fourier_norm(state, socbic_pot, soc.b, 4 * Q)
    assert got == _full_grid_peak(state, socbic_pot, soc.b, 4 * Q)
