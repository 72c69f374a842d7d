from types import SimpleNamespace

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
    diag = bf.classify(soc, bic_state_4096.state, [socbic_pot, None],
                       bic_state_4096.energy)
    assert diag.verdict is scalar.verdict is Verdict.EXACT_BIC
    assert diag.residual_rel == pytest.approx(scalar.residual_rel, rel=1e-9)


@pytest.mark.parametrize("two_terms", [False, True], ids=["spec", "list"])
def test_classify_builds_source_and_kernel_once(monkeypatch, bic_state_2048, soc,
                                                socbic_pot, two_terms):
    # the source is sampled once per coupling term, and the dispersion
    # polynomial is solved twice: once for the region, once for the kernel
    import sys

    from bicforge import criterion, spectral
    from bicforge.potentials import coupling_terms
    pot = [socbic_pot, socbic_pot] if two_terms else socbic_pot
    counts = {"sample_potential": 0, "poles": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(criterion, "sample_potential",
                        counted("sample_potential", criterion.sample_potential))
    # poles and residue_green both solve through the batched poles_many
    poles = spectral.poles_many
    for name, mod in list(sys.modules.items()):
        if name.startswith("bicforge") and getattr(mod, "poles_many", None) is poles:
            monkeypatch.setattr(mod, "poles_many", counted("poles", poles))
    bf.classify(soc, bic_state_2048.state, pot, bic_state_2048.energy)
    assert counts == {"sample_potential": len(coupling_terms(pot, soc.b)), "poles": 2}


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
    br = bf.classify(model, rep.state, pots, rep.energy)
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
    br = bf.classify(model, reps[0].state, pots, reps[0].energy)
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
    projectors = _standing_projectors(model, bf.residue_green(model, -0.21089568642655498))
    assert sorted(projectors) == pytest.approx([1.21214, 1.22216], abs=1e-5)
    assert all(len(mats) == 1 for mats in projectors.values())
    # with the linear term the cos*sign matrix is genuine and stays
    assert [len(mats) for mats in
            _standing_projectors(soc, bf.residue_green(soc, e_bic)).values()] == [2]


def test_refinement_monotonicity(bic_state_2048, bic_state_4096, soc, socbic_pot):
    b2 = bf.classify(soc, bic_state_2048.state, socbic_pot, bic_state_2048.energy)
    b4 = bf.classify(soc, bic_state_4096.state, socbic_pot, bic_state_4096.energy)
    assert b4.residual_rel < b2.residual_rel


def test_perturbation_sensitivity(bic_state_4096, soc, socbic_pot, grid_30_4096):
    base = bf.classify(soc, bic_state_4096.state, socbic_pot, bic_state_4096.energy)
    scaled = bf.Scaled(socbic_pot, 1.1)
    reps = bf.find_energy(soc, grid_30_4096, scaled, 0.45, 0.85, mesh_points=25)
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


def test_scan_row_takes_first_of_equal_least_residuals(monkeypatch):
    from bicforge import criterion
    reports = [SimpleNamespace(energy=e, state=None) for e in (0.1, 0.2, 0.3)]
    residual = {0.1: 2e-3, 0.2: 1e-3, 0.3: 1e-3}
    monkeypatch.setattr(criterion, "find_energy", lambda *a, **k: reports)
    monkeypatch.setattr(criterion, "classify", lambda model, state, pot, e: SimpleNamespace(
        residual_rel=residual[e], tail_rel=0.0, verdict=Verdict.QUASI_BIC))
    table = bf.scan_parameter(lambda v: None, lambda v: None, "x", 0.0, 1.0, 1,
                              grid=bf.Grid.symmetric(10.0, 64), e_window=(0.0, 1.0))
    (row,) = table.rows
    assert (row.energy, row.residual_rel, row.error) == (0.2, 1e-3, None)


# --- scale scans share their mesh eigensolves -------------------------------

def _recorded_eigs(monkeypatch):
    """Patch solver.eigs to record (grid points, k) of every call, and the
    batched mesh Arnoldi to record (grid points, FIRST_PASS_K) of every
    operator whose first pass it solves."""
    from bicforge import solver
    calls, eigs, batch = [], solver.eigs, solver._solve_mesh_arnoldi
    key = (solver.FIRST_PASS_K, False, True)

    def recorded(op, k, **kwargs):
        calls.append((op.grid.n_points, k))
        return eigs(op, k=k, **kwargs)

    def batched(ops):
        batch(ops)
        calls.extend((op.grid.n_points, solver.FIRST_PASS_K) for op in ops if key in op.sets)

    monkeypatch.setattr(solver, "eigs", recorded)
    monkeypatch.setattr(solver, "_solve_mesh_arnoldi", batched)
    return calls


def _rows_outside_scan(model, family, values, **kw):
    """Each row as scan_parameter builds it, from its own find_energy."""
    from bicforge.criterion import ScanRow
    from bicforge.errors import BicforgeError
    rows = []
    for v in values:
        try:
            reports = bf.find_energy(model, kw["grid"], family(v), *kw["e_window"],
                                     mesh_points=kw["mesh_points"])
            rep, br = min(((r, bf.classify(model, r.state, family(v), r.energy))
                           for r in reports), key=lambda t: t[1].residual_rel)
            rows.append(ScanRow(float(v), rep.energy, br.residual_rel, br.tail_rel,
                                br.verdict.value))
        except BicforgeError as exc:
            rows.append(ScanRow(float(v), None, None, None, "Error", str(exc)))
    return tuple(rows)


def _scan_and_reference(monkeypatch, mesh_of, model, family, lo, hi, steps, **kw):
    """The scan's rows and mesh-grid k's, then the same of per-row solves."""
    calls = _recorded_eigs(monkeypatch)
    table = bf.scan_parameter(lambda v: model, family, "p", lo, hi, steps, **kw)
    mesh_n = mesh_of(model, kw["grid"], *kw["e_window"], kw["mesh_points"])[1].n_points
    in_scan = [k for n, k in calls if n == mesh_n]
    calls.clear()
    rows = _rows_outside_scan(model, family, np.linspace(lo, hi, steps), **kw)
    return table.rows, in_scan, rows, [k for n, k in calls if n == mesh_n]


@pytest.mark.filterwarnings("ignore:grid half-width")
def test_scale_scan_solves_each_mesh_energy_once(monkeypatch, capsys, mesh_of):
    from bicforge import cli
    calls = _recorded_eigs(monkeypatch)
    assert cli.main(["scan", "--param", "scale", "--range", "0.9:1.1:3",
                     "--gamma", "0.5", "--nu", "0.7", "--mu", "1"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 4
    # the mesh grid find_energy sizes for the window, below the main 2048
    n_mesh = mesh_of(bf.soc_model(gamma=0.5, mu=1.0), bf.Grid.symmetric(30.0, 2048),
                     *cli._soc_window(0.5, 0.7, 1.0, 0.3, 0.3), 24)[1].n_points
    assert n_mesh < 2048
    assert len([k for n, k in calls if n == n_mesh]) == 24   # was 72, 24 per row


def test_shared_mesh_rows_equal_per_row_solves(monkeypatch, mesh_of, soc):
    # factors -0.5, 0, 0.5, 1, 1.5: the zero row has no potential, and only
    # the negative row needs the MESH_K fallback at every mesh energy, so
    # the scan asks for each set once per energy and every row is unchanged
    family = lambda v: bf.Scaled(bf.SocBic(0.5, 0.7), v)
    rows, in_scan, expected, per_row = _scan_and_reference(
        monkeypatch, mesh_of, soc, family, -0.5, 1.5, 5, grid=bf.Grid.symmetric(30.0, 1024),
        e_window=(0.45, 0.9), mesh_points=12)
    assert rows == expected
    assert [r.verdict for r in rows] == ["Error", "Error", "QuasiBIC", "ExactBIC",
                                         "QuasiBIC"]
    assert sorted(per_row) == [3] * 48 + [12] * 12
    assert sorted(in_scan) == [3] * 12 + [12] * 12


@pytest.mark.parametrize("case", ["nu", "tabulated"])
def test_unshared_scans_solve_every_row(monkeypatch, mesh_of, soc, case):
    # a nu scan changes the well itself, and a table's arrays have no hash:
    # neither shares a mesh eigensolve, and neither raises
    if case == "nu":
        family, lo, hi = (lambda v: bf.SocBic(0.5, v)), 0.65, 0.75
    else:
        xs = np.linspace(-30.0, 30.0, 6001)
        table = bf.Tabulated(x=xs, v=bf.potential_soc_bic(0.5, 0.7, xs))
        family, lo, hi = (lambda v: bf.Scaled(table, v)), 0.95, 1.05
    rows, in_scan, expected, per_row = _scan_and_reference(
        monkeypatch, mesh_of, soc, family, lo, hi, 3, grid=bf.Grid.symmetric(30.0, 1024),
        e_window=(0.6, 0.78), mesh_points=7)
    assert rows == expected
    assert all(r.error is None for r in rows)
    assert in_scan == per_row and len(in_scan) >= 21


def test_shared_mesh_keeps_the_coverage_warning(soc):
    # on half-width 6 the well (rate 1.4) spans under 10 decay lengths, and
    # (0.1, 0.5) holds no root: each row warns for its mesh alone, rows that
    # read the shared mesh record the well's rate as the first row did, and
    # the scan warns once for all of them. On half-width 30 no row warns:
    # the mesh kernel's rate 0.2827 at the window edge 0.95 was quoted for
    # every row, though no result reads it
    import warnings
    family = lambda v: bf.Scaled(bf.SocBic(0.5, 0.7), v)
    for half_width, window, message in [
            (6.0, (0.1, 0.5), "grid half-width 6 is under 10 decay lengths (rate 1.4)"),
            (30.0, (0.1, 0.95), None)]:
        kw = dict(grid=bf.Grid.symmetric(half_width, 1024), e_window=window, mesh_points=12)
        with warnings.catch_warnings(record=True) as in_scan:
            warnings.simplefilter("always")
            bf.scan_parameter(lambda v: soc, family, "scale", 0.9, 1.1, 3, **kw)
        with warnings.catch_warnings(record=True) as per_row:
            warnings.simplefilter("always")
            _rows_outside_scan(soc, family, [0.9, 1.0, 1.1], **kw)
        assert [str(w.message) for w in per_row] == ([message] * 3 if message else [])
        assert [str(w.message) for w in in_scan] == [str(w.message) for w in per_row[:1]]


def _full_grid_peak(state, potential, b, q_max, samples=512):
    """max |F_q| with the phase sum over every grid point."""
    from bicforge.criterion import _source_values
    src = _source_values(state, potential, b)
    qs = np.linspace(0.0, q_max, samples)
    phases = np.exp(-1j * np.outer(qs, state.grid.x))
    return float(np.linalg.norm(phases @ (src * state.grid.weights[:, None]), axis=1).max())


def test_peak_fourier_norm_of_delta_matches_full_grid_sum(quasi_state_2049):
    _, state = quasi_state_2049
    b = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0).b
    for q_max in (0.5, 4 * Q, 20.0):
        got = bf.peak_fourier_norm(state, UNIT_DELTA, b, q_max)
        assert got > 0
        assert got == pytest.approx(_full_grid_peak(state, UNIT_DELTA, b, q_max), rel=1e-13)


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
        assert bf.peak_fourier_norm(state, box, b, 8.0) == pytest.approx(want, rel=1e-13)


def test_peak_fourier_norm_of_socbic_source_sums_every_row(bic_state_4096, soc, socbic_pot):
    from bicforge.criterion import _source_values
    state = bic_state_4096.state
    assert (np.abs(_source_values(state, socbic_pot, soc.b)).max(axis=1) > 0).all()
    got = bf.peak_fourier_norm(state, socbic_pot, soc.b, 4 * Q)
    assert got == pytest.approx(_full_grid_peak(state, socbic_pot, soc.b, 4 * Q), rel=1e-13)


def _long_double_line(state, potential, b, q_lo, q_hi, count):
    """F_q at np.linspace(q_lo, q_hi, count): the direct sum over every grid
    point, phased and summed in long double."""
    from bicforge.criterion import _source_values
    ws = (_source_values(state, potential, b) * state.grid.weights[:, None]).astype(np.clongdouble)
    x = state.grid.x.astype(np.longdouble)
    qs = np.linspace(q_lo, q_hi, count).astype(np.longdouble)
    return np.array([np.exp(-1j * (q * x).astype(np.clongdouble)) @ ws for q in qs])


def _compact_boxes(grid, count):
    """Random Tabulated boxes inside the grid, with random complex states."""
    rng = np.random.default_rng(12)
    for _ in range(count):
        lo = rng.uniform(-20.0, 15.0)
        xs = np.linspace(lo, lo + rng.uniform(0.5, 5.0), 40)
        vs = rng.normal(size=40)
        vs[0] = vs[-1] = 0.0
        box = bf.Tabulated(np.r_[-31.0, xs, 31.0], np.r_[0.0, vs, 0.0])
        values = rng.normal(size=(grid.n_points, 2)) + 1j * rng.normal(size=(grid.n_points, 2))
        yield bf.SpinorField(grid=grid, values=values), box


def _fourier_line_cases(bic_state_4096, soc, socbic_pot, quasi_state_2049):
    # the SocBic line stops at 2Q, bic-verify's spectrum range: further out a
    # smooth source's components fall toward the roundoff of any double sum
    yield bic_state_4096.state, socbic_pot, soc.b, 2 * Q
    yield quasi_state_2049[1], UNIT_DELTA, bf.two_band_model(mu=0.0, g=1.0, lam=-1.0).b, 4 * Q
    b = np.array([[1.0, 0.3], [0.3, 0.0]], dtype=complex)
    for state, box in _compact_boxes(bf.Grid.symmetric(30.0, 2048), 10):
        yield state, box, b, 8.0


def test_fourier_line_matches_long_double_direct_sum(bic_state_4096, soc, socbic_pot,
                                                     quasi_state_2049):
    for state, pot, b, q in _fourier_line_cases(bic_state_4096, soc, socbic_pot,
                                                quasi_state_2049):
        for q_lo in (0.0, -q):
            for count in (1, 2, 801):
                got = bf.fourier_line(state, pot, b, q_lo, q, count)
                want = _long_double_line(state, pot, b, q_lo, q, count)
                assert got.shape == want.shape == (count, 2)
                scale = float(np.abs(want).max())
                assert scale > 0
                assert float(np.abs(got - want).max()) <= 1e-12 * scale
                peak = float(np.sqrt((np.abs(want) ** 2).sum(axis=1)).max())
                assert float(np.linalg.norm(got, axis=1).max()) == pytest.approx(peak, rel=1e-13)


def test_fourier_line_of_zero_source_is_zero(quasi_state_2049):
    _, state = quasi_state_2049
    zero = bf.Tabulated(x=np.array([-50.0, 50.0]), v=np.array([0.0, 0.0]))
    got = bf.fourier_line(state, zero, np.eye(2), -3.0, 3.0, 801)
    assert got.shape == (801, 2)
    assert not got.any()
    assert bf.peak_fourier_norm(state, zero, np.eye(2), 8.0) == 0.0


def test_fourier_line_grid_too_coarse(quasi_state_2049):
    _, state = quasi_state_2049
    q_bad = 0.6 / state.grid.dx
    for q_lo, q_hi in ((0.0, q_bad), (-q_bad, 1.0), (-q_bad, q_bad)):
        with pytest.raises(GridTooCoarse):
            bf.fourier_line(state, UNIT_DELTA, np.eye(2), q_lo, q_hi, 5)
    q_ok = 0.45 / state.grid.dx
    assert bf.fourier_line(state, UNIT_DELTA, np.eye(2), -q_ok, q_ok, 5).shape == (5, 2)


def test_peak_fourier_norm_allocates_little(bic_state_4096, soc, socbic_pot):
    # the direct sum over 512 q x 4096 rows peaked at 64 MB
    import tracemalloc
    tracemalloc.start()
    try:
        bf.peak_fourier_norm(bic_state_4096.state, socbic_pot, soc.b, 4 * Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
