import sys
import threading
import warnings

import numpy as np
import pytest

import bicforge as bf
from bicforge import solver
from bicforge.errors import (DegeneratePoles, GridTooCoarse, NoNearUnitEigenvalue,
                             NoSolutionInRange)
from bicforge.potentials import decay_scale
from bicforge.solver import _ConvMap

UNIT_DELTA = bf.Delta(1.0)


def _op(model, energy, grid, potential):
    """The map's operator at one energy on its coupled subspace."""
    return _ConvMap(bf.residue_green(model, energy), grid,
                    solver._coupling(model, grid, potential))


def test_assembled_map_shape_and_delta_fixed_point():
    model = bf.single_band_model(lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 1025)
    m = bf.assemble_map(model, -0.5, grid, UNIT_DELTA)
    assert m.shape == (1025, 1025)
    lam = np.linalg.eigvals(m)
    assert abs(lam[np.argmin(np.abs(lam - 1))] - 1.0) < 2e-3


def _spectra_match(small, full, atol):
    """full holds small's eigenvalues plus len(full) - len(small) zeros."""
    top = full[np.argsort(np.abs(full))[::-1]]
    zeros, top = top[len(small):], top[:len(small)]
    assert np.abs(small[:, None] - top[None, :]).min(axis=1).max() < atol
    assert np.abs(top[:, None] - small[None, :]).min(axis=1).max() < atol
    assert np.abs(zeros).max(initial=0.0) < atol


@pytest.mark.filterwarnings("ignore:grid half-width")
def test_operator_matches_dense_matrix():
    model = bf.soc_model(gamma=0.5, mu=1.0)
    dense_b = bf.soc_model(gamma=0.5, mu=1.0, b=np.array([[1.0, 0.3], [0.3, 0.5]]))
    grid = bf.Grid.symmetric(20.0, 384)
    rng = np.random.default_rng(0)
    v = rng.normal(size=768) + 1j * rng.normal(size=768)
    well = bf.SocBic(0.5, 0.7)
    spikes = np.zeros(384)
    spikes[[60, 300]] = [-0.8, -1.3]   # two point sites far apart
    two_sites = bf.Tabulated(x=grid.x.copy(), v=spikes)
    # a single spec through B, per-channel lists of one and two terms, a
    # dense B (R = C = both channels) and a support that is not contiguous
    cases = [(model, well, 384), (model, [well, None], 384),
             (model, [bf.Scaled(well, 0.9), well], 768), (dense_b, well, 768),
             (model, two_sites, 2)]
    for mod, pot, dim in cases:
        dense = bf.assemble_map(mod, 0.55, grid, pot)
        op = _op(mod, 0.55, grid, pot)
        assert op.shape == (dim, dim)
        assert np.allclose(op.full_matvec(v), dense @ v, atol=1e-11 * np.abs(dense @ v).max())
        small = op.matmat(np.eye(dim))
        assert np.allclose(small, op.support_matrix(), atol=1e-11 * np.abs(small).max())
        full = np.linalg.eigvals(dense)
        _spectra_match(np.linalg.eigvals(small), full, 1e-11 * np.abs(full).max())


def test_socbic_map_has_unit_eigenvalue_at_analytic_energy(e_bic, soc, socbic_pot,
                                                           grid_30_2048):
    m = bf.assemble_map(soc, e_bic, grid_30_2048, socbic_pot)
    assert m.shape == (4096, 4096)
    op = _op(soc, e_bic, grid_30_2048, socbic_pot)
    from bicforge.solver import _near_one
    lam, _, _ = _near_one(op, 16, want_vectors=False)
    assert abs(lam - 1.0) < 1e-3


def test_solve_state_profile_matches_closed_form():
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 2049)
    rep = bf.solve_state(model, 0.875, grid, UNIT_DELTA)
    sol = bf.two_band_solution(0.0, 1.0, -1.0, 1.0)
    ana = sol.sample(grid.x)
    ana = ana / np.abs(ana).max()
    num = rep.state.values
    i0 = int(np.argmax(np.abs(ana[:, 0])))
    num = num * (ana[i0, 0] / num[i0, 0])
    assert np.abs(num - ana).max() < 1e-2  # tolerance 1%; agreement is machine-level


def test_solve_state_bic_is_localized(bic_state_4096, e_bic):
    rep = bic_state_4096
    assert abs(rep.energy - e_bic) < 1e-3
    assert rep.fixed_point_residual < 1e-6
    osc, rate = bf.tail_metrics(rep.state, 2.0632495726496685, 5.0)
    assert abs(rate - 0.7) < 0.05 * 0.7
    dens = rep.state.density
    assert dens[0] < 1e-8 * dens.max() and dens[-1] < 1e-8 * dens.max()


def test_solve_state_away_from_solution_raises(soc, socbic_pot):
    grid = bf.Grid.symmetric(30.0, 1024)
    with pytest.raises(NoNearUnitEigenvalue):
        bf.solve_state(soc, 0.2, grid, socbic_pot)


def test_find_energy_socbic(bic_state_4096, e_bic):
    assert bic_state_4096.energy == pytest.approx(e_bic, abs=1e-3)


def test_find_energy_delta():
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 2049)
    reps = bf.find_energy(model, grid, UNIT_DELTA, -0.95, 0.95, mesh_points=40)
    assert len(reps) == 1
    assert reps[0].energy == pytest.approx(0.875, abs=1e-3)
    assert reps[0].fixed_point_residual < 1e-6


def test_find_energy_no_potential():
    model = bf.two_band_model(mu=0.0, g=1.0)
    grid = bf.Grid.symmetric(20.0, 256)
    zero = bf.Tabulated(x=np.array([-25.0, 25.0]), v=np.array([0.0, 0.0]))
    with pytest.raises(NoSolutionInRange):
        bf.find_energy(model, grid, zero, -0.5, 0.5, mesh_points=10)


def test_delta_consistency_and_refinement():
    # single-site point potential: the fixed-point energy is exact in dx
    model = bf.single_band_model(lam=-1.0)
    errs = {}
    for n in (2048, 4096):
        grid = bf.Grid.symmetric(40.0, n)
        reps = bf.find_energy(model, grid, UNIT_DELTA, -0.9, -0.1, mesh_points=20)
        errs[n] = abs(reps[0].energy + 0.5)
    assert errs[2048] < 1e-2
    assert errs[4096] <= errs[2048] + 1e-12


def test_discretization_convergence_socbic(soc, socbic_pot, e_bic, bic_state_4096):
    grid_small = bf.Grid.symmetric(30.0, 1024)
    reps = bf.find_energy(soc, grid_small, socbic_pot, 0.65, 0.73, mesh_points=5)
    err_small = abs(reps[0].energy - e_bic)
    err_big = abs(bic_state_4096.energy - e_bic)
    assert err_big < err_small / 3.0


def test_even_potential_gives_even_density(bic_state_2048):
    dens = bic_state_2048.state.density
    sym = np.abs(dens - dens[::-1]).max() / dens.max()
    assert sym < 1e-6


def test_grid_too_coarse():
    model = bf.two_band_model(mu=0.0, g=1.0)
    grid = bf.Grid.symmetric(200.0, 256)  # dx ~ 1.6, p1 ~ 1.94
    with pytest.raises(GridTooCoarse):
        bf.assemble_map(model, 0.875, grid, UNIT_DELTA)


def test_tabulated_potential_matches_analytic_route(soc, socbic_pot, e_bic):
    # external two-column table, linearly interpolated, reproduces the same
    # fixed point as the analytic potential
    xs = np.linspace(-30.0, 30.0, 6001)
    tab = bf.Tabulated(x=xs, v=bf.potential_soc_bic(0.5, 0.7, xs))
    grid = bf.Grid.symmetric(30.0, 1024)
    r1 = bf.find_energy(soc, grid, tab, 0.65, 0.73, mesh_points=5)
    r2 = bf.find_energy(soc, grid, socbic_pot, 0.65, 0.73, mesh_points=5)
    assert r1[0].energy == pytest.approx(r2[0].energy, abs=2e-4)


def _coverage_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            fn(*args, **kwargs)
        except NoSolutionInRange:
            pass
    return [str(w.message) for w in record if "decay lengths" in str(w.message)]


def test_tabulated_rate_comes_from_its_envelope(soc):
    # the rate was 1/(table half-span), so the well's table warned with rate
    # 0.0333333; its envelope falls like the analytic well's instead, and a
    # flat table still warns with rate 0
    xs = np.linspace(-30.0, 30.0, 6001)
    grid = bf.Grid.symmetric(30.0, 1024)
    well = bf.Tabulated(x=xs, v=bf.potential_soc_bic(0.5, 0.7, xs))
    assert decay_scale(well) == pytest.approx(1.4, rel=0.1)
    assert _coverage_warnings(bf.find_energy, soc, grid, well, 0.65, 0.73,
                              mesh_points=5) == []
    flat = bf.Tabulated(x=xs, v=np.full_like(xs, -0.05))
    assert _coverage_warnings(bf.find_energy, soc, grid, flat, 0.65, 0.73,
                              mesh_points=5) == [
        "grid half-width 30 is under 10 decay lengths (rate 0)"]


# --- bracket rejection: eigenvalue counts above Re(lambda) = 1 ---------------

SCALED_WELL = bf.Scaled(bf.SocBic(0.5, 0.7), 0.9)


def _scaled_window(e_bic):
    # the window bic-verify searches for a rescaled well at mu = 1
    return max(e_bic - 0.3, -0.98), min(e_bic + 0.2, 0.98)


def test_find_energy_skips_branch_switch_bracket(monkeypatch, soc, e_bic):
    # the eigenvalue nearest 1 jumps from about 1.5 to 0.5 between two mesh
    # points near E = 0.82; no eigenvalue crosses 1 there, so that bracket
    # costs no fine-grid eigensolve
    from bicforge import solver
    grid = bf.Grid.symmetric(30.0, 768)
    fine = []
    eigs = solver.eigs

    def counted(op, *args, **kwargs):
        if op.grid is grid:
            fine.append(op.kernel.energy)
        return eigs(op, *args, **kwargs)

    monkeypatch.setattr(solver, "eigs", counted)
    lo, hi = _scaled_window(e_bic)
    mesh = np.linspace(lo, hi, 12)
    reps = bf.find_energy(soc, grid, SCALED_WELL, lo, hi, mesh_points=12)
    assert [r.energy for r in reps] == [pytest.approx(0.72998, abs=5e-4)]
    assert not [e for e in fine if mesh[9] <= e <= mesh[10]]
    assert len(fine) <= 8   # root bracket: 2 ends, secant steps, solve_state


def test_branch_switch_named_when_no_root(soc):
    grid = bf.Grid.symmetric(30.0, 512)
    with pytest.raises(NoSolutionInRange) as info:
        bf.find_energy(soc, grid, SCALED_WELL, 0.78, 0.88, mesh_points=5)
    assert str(info.value) == ("no fixed point in (0.78, 0.88): "
                               "1 sign change, 1 branch switch")


def test_unknown_count_refines_and_names_rejection(monkeypatch, soc):
    # with the counts unknown the branch-switch bracket is refined as before
    # and solve_state rejects its end point
    from bicforge import solver
    mesh_values = solver._mesh_branch_values
    monkeypatch.setattr(solver, "_mesh_branch_values",
                        lambda *a: [(lam, None) for lam, _ in mesh_values(*a)])
    grid = bf.Grid.symmetric(30.0, 512)
    with pytest.raises(NoSolutionInRange) as info:
        bf.find_energy(soc, grid, SCALED_WELL, 0.78, 0.88, mesh_points=5)
    msg = str(info.value)
    assert msg.startswith("no fixed point in (0.78, 0.88): 1 sign change, "
                          "1 rejected by solve_state (|lambda - 1| = 0.")
    assert "branch switch" not in msg


def test_no_solution_message_counts_zero_brackets():
    model = bf.two_band_model(mu=0.0, g=1.0)
    grid = bf.Grid.symmetric(20.0, 256)
    with pytest.raises(NoSolutionInRange, match=r"^no fixed point in \(-0\.5, 0\.5\): "
                                                r"0 sign changes$"):
        bf.find_energy(model, grid, None, -0.5, 0.5, mesh_points=4)


@pytest.mark.parametrize("mesh_points", [-3, 0, 1])
def test_find_energy_rejects_short_mesh(mesh_points):
    model = bf.single_band_model(lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 256)
    with pytest.raises(ValueError, match="mesh_points"):
        bf.find_energy(model, grid, UNIT_DELTA, -0.9, -0.1, mesh_points=mesh_points)


def _dense_count_above_one(model, energy, grid, pot):
    vals = np.linalg.eigvals(bf.assemble_map(model, energy, grid, pot))
    return int(np.count_nonzero(vals.real > 1.0))


@pytest.mark.parametrize("energy, count", [(-0.3, 1), (-0.8, 0)])
def test_count_exact_on_support_matrix_path(energy, count):
    # one delta site: the map has the single nonzero eigenvalue 1/kappa
    from bicforge.solver import _near_one
    model = bf.single_band_model(lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 513)
    op = _op(model, energy, grid, UNIT_DELTA)
    _, _, above = _near_one(op, 12, want_vectors=False)
    assert above == _dense_count_above_one(model, energy, grid, UNIT_DELTA) == count


def test_count_exact_after_converged_arnoldi(soc):
    from bicforge.solver import _near_one
    grid = bf.Grid.symmetric(22.0, 400)
    nearest, counts = [], []
    for energy in (0.8, 0.85):
        op = _op(soc, energy, grid, SCALED_WELL)
        assert op.support.size * op.n_bands > 512   # not the direct path
        lam, _, above = _near_one(op, 12, want_vectors=False)
        assert above == _dense_count_above_one(soc, energy, grid, SCALED_WELL)
        nearest.append(lam.real)
        counts.append(above)
    # the nearest eigenvalue jumps across 1 and the count stays put
    assert nearest[0] > 1.0 > nearest[1]
    assert counts[0] == counts[1] >= 1


@pytest.mark.parametrize("outcome", ["all_outside_unit_circle", "no_convergence"])
def test_count_unknown_when_set_may_be_partial(monkeypatch, soc, outcome):
    from scipy.sparse.linalg import ArpackNoConvergence

    from bicforge import solver
    vals = {"all_outside_unit_circle": np.array([1.5, 2.0 + 0.5j, -1.2]),
            "no_convergence": np.array([1.5, 0.3])}[outcome]

    def fake_eigs(op, k, **kwargs):
        if outcome == "no_convergence":
            raise ArpackNoConvergence("not converged", vals, None)
        return vals

    monkeypatch.setattr(solver, "eigs", fake_eigs)
    op = _op(soc, 0.8, bf.Grid.symmetric(30.0, 512), SCALED_WELL)
    lam, _, above = solver._near_one(op, 12, want_vectors=False)
    assert lam == 1.5
    assert above is None


# --- first Arnoldi pass: three eigenvalues, kept only when they certify ------

def _recording_eigs(monkeypatch, fake=None):
    """Patch solver.eigs to record (op, k) per call and answer with fake(k),
    or with the real eigs when fake is None; the batched mesh Arnoldi records
    (op, FIRST_PASS_K) of every operator whose first pass it solves."""
    from bicforge import solver
    calls, eigs = [], solver.eigs

    def recorded(op, k, **kwargs):
        calls.append((op, k))
        return eigs(op, k=k, **kwargs) if fake is None else fake(k)

    monkeypatch.setattr(solver, "eigs", recorded)
    _record_batch(monkeypatch, lambda op: calls.append((op, solver.FIRST_PASS_K)))
    return calls


def _record_batch(monkeypatch, record):
    """Patch the batched mesh Arnoldi to call record(op) for every operator
    whose first pass it solves."""
    batch, key = solver._solve_mesh_arnoldi, (solver.FIRST_PASS_K, False, True)

    def batched(ops):
        batch(ops)
        for op in ops:
            if key in op.sets:
                record(op)

    monkeypatch.setattr(solver, "_solve_mesh_arnoldi", batched)


@pytest.mark.parametrize("energy", [0.8, 0.85, 0.72998])
def test_first_pass_matches_dense_reference(monkeypatch, soc, energy):
    # both sides of the branch switch near 0.82, and next to the root
    from bicforge.solver import _near_one
    calls = _recording_eigs(monkeypatch)
    grid = bf.Grid.symmetric(22.0, 400)
    op = _op(soc, energy, grid, SCALED_WELL)
    lam, _, above = _near_one(op, 12, want_vectors=False)
    assert [k for _, k in calls] == [3]
    vals = np.linalg.eigvals(bf.assemble_map(soc, energy, grid, SCALED_WELL))
    assert lam == pytest.approx(vals[np.argmin(np.abs(vals - 1.0))], abs=1e-10)
    assert above == int(np.count_nonzero(vals.real > 1.0))


@pytest.mark.parametrize("first, lam, above, ks", [
    (np.array([2.0, 1.1, 0.5]), 1.1, 2, [3]),          # certified
    (np.array([3.0, 1.5, 1.2]), 0.9, 3, [3, 12]),      # may be partial: m >= 1
    (np.array([3.0, 2.5, 0.6]), 0.9, 3, [3, 12]),      # pick not certified
    ("no_convergence", 0.9, 3, [3, 12]),
])
def test_first_pass_falls_back_to_callers_k(monkeypatch, soc, first, lam, above, ks):
    from scipy.sparse.linalg import ArpackNoConvergence

    from bicforge import solver
    full = np.array([3.0, 2.5, 1.2, 0.9, 0.6, 0.2])

    def fake(k):
        if k != 3:
            return full
        if isinstance(first, str):
            raise ArpackNoConvergence("not converged", np.array([3.0]), None)
        return first

    calls = _recording_eigs(monkeypatch, fake)
    op = _op(soc, 0.8, bf.Grid.symmetric(30.0, 512), SCALED_WELL)
    got_lam, _, got_above = solver._near_one(op, 12, want_vectors=False)
    assert [k for _, k in calls] == ks
    assert (got_lam, got_above) == (lam, above)


def test_find_energy_certifies_every_operator_on_first_pass(monkeypatch, soc, e_bic):
    # bic-verify's rescaled window and mesh: one first pass per operator
    # (an eigs call or the mesh batch), each with k=3, so no probe, secant
    # step or final state pays the fallback
    calls = _recording_eigs(monkeypatch)
    lo, hi = _scaled_window(e_bic)
    reps = bf.find_energy(soc, bf.Grid.symmetric(30.0, 2048), SCALED_WELL, lo, hi,
                          mesh_points=48)
    assert [r.energy for r in reps] == [pytest.approx(0.72998, abs=5e-4)]
    ops = [op for op, _ in calls]
    assert len({id(op) for op in ops}) == len(ops) > 48
    assert {k for _, k in calls} == {3}


def test_root_on_a_mesh_point_is_reported_once(monkeypatch):
    # the mesh point 0.25 is the root itself: both adjacent brackets close on
    # it, and the two reports are one root
    from bicforge import solver
    monkeypatch.setattr(solver, "_mesh_kernels", lambda model, es, grid: ([], grid))
    monkeypatch.setattr(solver, "_mesh_branch_values", lambda es, *a: [
        (complex(1.0 + (e - 0.25)), None) for e in es])
    monkeypatch.setattr(solver, "_branch_value",
                        lambda model, e, *a: (complex(1.0 + (e - 0.25)), None))
    monkeypatch.setattr(solver, "_solve_state", lambda model, e, *a, **kw: solver.SolveReport(
        energy=float(e), operator_eigenvalue=1.0, state=None, fixed_point_residual=0.0))
    model = bf.single_band_model(lam=-1.0)
    reps = bf.find_energy(model, bf.Grid.symmetric(20.0, 256), UNIT_DELTA, 0.0, 1.0,
                          mesh_points=5)
    assert [r.energy for r in reps] == [0.25]


# --- refinement starts at the mesh's own root --------------------------------

def _refine(monkeypatch, mesh_h, fine_h, mesh_points):
    """find_energy's roots on [0, 1] where the mesh reads Re(lambda) - 1 =
    mesh_h(E) and the fine grid fine_h(E), solve_state accepting every
    energy, and the energies of the fine probes."""
    probes = []

    def fine(model, e, *a):
        probes.append(e)
        return complex(1.0 + fine_h(e)), None

    monkeypatch.setattr(solver, "_mesh_kernels", lambda model, es, grid: ([], grid))
    monkeypatch.setattr(solver, "_mesh_branch_values", lambda es, *a: [
        (complex(1.0 + mesh_h(e)), None) for e in es])
    monkeypatch.setattr(solver, "_branch_value", fine)
    monkeypatch.setattr(solver, "_solve_state", lambda model, e, *a, **kw: solver.SolveReport(
        energy=float(e), operator_eigenvalue=1.0, state=None, fixed_point_residual=0.0))
    reps = bf.find_energy(bf.single_band_model(lam=-1.0), bf.Grid.symmetric(20.0, 256),
                          UNIT_DELTA, 0.0, 1.0, mesh_points=mesh_points)
    return [r.energy for r in reps], probes


def test_refinement_starts_on_a_zero_mesh_value(monkeypatch):
    # the mesh value at 0.25 is exactly 0: both brackets start there, and
    # one fine probe each confirms it
    h = lambda e: np.tanh(3.0 * (e - 0.25))
    roots, probes = _refine(monkeypatch, h, h, 5)
    assert roots == [0.25]
    assert probes == [0.25, 0.25]


def test_refinement_falls_back_to_the_linear_root(monkeypatch):
    # a cubic whose only real root lies outside the bracket starts the
    # secant at the linear root instead
    from types import SimpleNamespace
    poly = np.polynomial.polynomial
    monkeypatch.setattr(solver, "npoly", SimpleNamespace(
        polyfit=poly.polyfit, polyval=poly.polyval, polyder=poly.polyder,
        polyroots=lambda coef: np.array([3.0 + 0j])))
    h = lambda e: (e - 0.3) * (1.0 + e * e)
    roots, probes = _refine(monkeypatch, h, h, 9)
    assert roots == [pytest.approx(0.3, abs=1e-12)]
    ha, hb = h(0.25), h(0.375)
    assert probes[0] == pytest.approx(0.25 - 0.125 * ha / (hb - ha), abs=1e-6 * 0.125)
    assert len(probes) <= 4


def test_refinement_skips_a_nan_neighbour(monkeypatch):
    # the neighbour above the bracket [0.25, 0.375] failed on the mesh: the
    # interpolant uses the three values left
    h = lambda e: np.sin(2.0 * (e - 0.3))
    mesh_h = lambda e: np.nan if e == 0.5 else h(e)
    roots, probes = _refine(monkeypatch, mesh_h, h, 9)
    assert roots == [pytest.approx(0.3, abs=1e-12)]
    assert len(probes) <= 3


def test_refinement_reaches_a_fine_root_just_outside_the_mesh_bracket(monkeypatch):
    # the mesh root 0.37 lies in [0.25, 0.375], the fine root 0.38 above it:
    # the secant may leave the bracket by up to one mesh step
    roots, probes = _refine(monkeypatch, lambda e: e - 0.37, lambda e: np.sin(e - 0.38), 9)
    assert roots == [pytest.approx(0.38, abs=1e-12)]
    assert len(probes) <= 4


def test_bic_verify_refines_each_bracket_in_three_fine_probes(monkeypatch, capsys):
    from bicforge import cli
    seeds, probes = [], []
    seed, branch_value = solver._mesh_seed, solver._branch_value
    monkeypatch.setattr(solver, "_mesh_seed", lambda *a: seeds.append(a[2]) or seed(*a))
    monkeypatch.setattr(solver, "_branch_value",
                        lambda *a: probes.append(a[1]) or branch_value(*a))
    assert cli.main(["bic-verify", "--gamma", "0.5", "--nu", "0.7", "--mu", "1"]) == cli.EXIT_OK
    assert '"verdict": "ExactBIC"' in capsys.readouterr().out
    assert seeds and len(probes) <= 3 * len(seeds)


def _delta_roots(a0, lam, lo, hi):
    """Bound energies in (lo, hi) of a delta of strength lam on channel 1,
    mass 1: the roots of lam sum_j |V_1j|^2 (-1 / kappa_j) = 1 over the
    closed channels, kappa_j = sqrt(2 (eps_j - E)), one at most between
    consecutive band edges eps_j, where the left side rises to +inf."""
    from scipy.optimize import brentq
    eps, vecs = np.linalg.eigh(a0)
    weight = np.abs(vecs[0]) ** 2

    def f(e):
        closed = eps > e
        return -lam * float(np.sum(weight[closed] / np.sqrt(2.0 * (eps[closed] - e)))) - 1.0

    edges = [lo, *eps[(eps > lo) & (eps < hi)], hi]
    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        a, b = a + 1e-13, b - 1e-13
        if f(a) < 0.0 < f(b):
            roots.append(brentq(f, a, b, xtol=1e-15, rtol=1e-15))
    return roots


@pytest.mark.filterwarnings("ignore:grid half-width")
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_bands", [2, 3])
def test_delta_models_reproduce_the_closed_form_roots(n_bands, seed):
    # a seeded a0 with every root at least 3 mesh steps from a band edge,
    # where the mesh can miss it; a single-site delta is exact in dx
    rng = np.random.default_rng(seed)
    mesh_points = 48
    while True:
        if n_bands == 2:
            mu, g = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.0)
            a0 = np.array([[mu, g], [g, -mu]])
        else:
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            a0 = (q * rng.uniform(-1.0, 1.0, 3)) @ q.T
            a0 = (a0 + a0.T) / 2.0
        lam = rng.uniform(-1.5, -0.5)
        eps = np.linalg.eigvalsh(a0)
        pad = 1e-4 * (eps[-1] - eps[0])
        lo, hi = eps[0] + pad, eps[-1] - pad
        want = _delta_roots(a0, lam, lo, hi)
        step = (hi - lo) / (mesh_points - 1)
        if want and np.abs(np.subtract.outer(want, eps)).min() >= 3.0 * step:
            break
    zero = np.zeros((n_bands, n_bands))
    model = bf.BandModel(n_bands, 1.0, a0, zero, zero)
    pots = [bf.Delta(lam)] + [None] * (n_bands - 1)
    reps = bf.find_energy(model, bf.Grid.symmetric(40.0, 2049), pots, lo, hi,
                          mesh_points=mesh_points)
    got = [r.energy for r in reps]
    assert len(got) == len(want)
    assert np.abs(np.subtract(got, want)).max() < 1e-10


@pytest.mark.parametrize("n_bands", [2, 3])
def test_mesh_values_equal_the_per_energy_branch_values(n_bands):
    # the batched kernels and the stacked direct-path eigvals give each mesh
    # energy the bits of its own probe
    hop = np.eye(n_bands, k=1) + np.eye(n_bands, k=-1)
    zero = np.zeros((n_bands, n_bands))
    model = bf.BandModel(n_bands, 1.0, np.diag(np.linspace(-0.6, 0.8, n_bands)) + 0.2 * hop,
                         zero, zero)
    pots = [bf.Delta(-1.0)] + [None] * (n_bands - 1)
    grid = bf.Grid.symmetric(40.0, 1025)
    energies = np.linspace(-0.55, 0.75, 24)
    coupling = solver._coupling(model, grid, pots)
    ops = {}
    kernels, _ = solver._mesh_kernels(model, energies, grid)
    got = solver._mesh_branch_values(energies, kernels, grid, coupling, ops, 1.0)
    assert len(ops) == len(energies)
    want = [solver._branch_value(model, e, grid, coupling) for e in energies]
    assert got == want


def test_first_failing_mesh_energy_decides_the_error(monkeypatch):
    # the mesh -0.5, 0, 0.5, 1 ends on the band edge at 1. On a grid too
    # coarse for -0.5, that energy fails first; on a fine one the edge does,
    # with its own message. Either raises before any mesh energy is read
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    read, near_one = [], solver._near_one
    monkeypatch.setattr(solver, "_near_one",
                        lambda op, *a, **kw: read.append(op.kernel.energy) or near_one(op, *a, **kw))
    with pytest.raises(GridTooCoarse):
        bf.find_energy(model, bf.Grid.symmetric(100.0, 401), UNIT_DELTA, -0.5, 1.0,
                       mesh_points=4)
    with pytest.raises(DegeneratePoles) as alone:
        bf.residue_green(model, 1.0)
    with pytest.raises(DegeneratePoles) as info:
        bf.find_energy(model, bf.Grid.symmetric(10.0, 401), UNIT_DELTA, -0.5, 1.0,
                       mesh_points=4)
    assert str(info.value) == str(alone.value)
    assert read == []


def test_mesh_grid_error_names_the_first_unresolved_energy():
    # on this 81-point grid dx = 0.25: the real poles at E = 1.25 (|p| 1.58)
    # and 2 (|p| 2) exceed dx*p = 0.3 while E = 0.5 (|p| 1) does not, so the
    # first failing energy is a middle one, with its own kernel's message
    model = bf.single_band_model(lam=-1.0)
    grid = bf.Grid.symmetric(10.0, 81)
    energies = np.linspace(-1.0, 2.0, 5)
    kernels = bf.residue_green_many(model, energies)
    with pytest.raises(GridTooCoarse) as want:
        solver._check_grid(kernels[3], grid)
    solver._check_grid(kernels[2], grid)
    with pytest.raises(GridTooCoarse) as info:
        solver._mesh_kernels(model, energies, grid)
    assert str(info.value) == str(want.value) == "dx*p = 0.395 rad/step exceeds 0.3"


@pytest.mark.filterwarnings("ignore:grid half-width")
@pytest.mark.parametrize("half_width, error", [(100.0, GridTooCoarse), (10.0, DegeneratePoles)])
def test_failing_shared_row_leaves_no_operator_in_the_memo(half_width, error):
    # a row whose mesh fails builds no operator for the rows after it to
    # share; a row that passes on the same base keeps its mesh operators
    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    grid = bf.Grid.symmetric(half_width, 401)
    pot = bf.Scaled(UNIT_DELTA, 1.0)

    def shared():
        return [e for _, _, ops in solver._MESH.get().values() for e in ops]

    with solver.shared_mesh():
        with pytest.raises(error):
            bf.find_energy(model, grid, pot, -0.5, 1.0, mesh_points=4)
        assert shared() == []
        assert len(bf.find_energy(model, grid, pot, -1.5, -1.1, mesh_points=3)) == 1
        assert shared() == list(np.linspace(-1.5, -1.1, 3))


@pytest.mark.parametrize("mu, n_points", [(1.0, 4096), (2.0, 4096), (2.0, 1024), (1.0, 480)])
def test_mesh_grid_resolves_every_mesh_pole(mu, n_points):
    # the rescaled window bic-verify searches; at mu = 2 the real poles reach
    # |p| ~ 3, which a 512-point mesh grid on half-width 30 cannot resolve
    model = bf.soc_model(gamma=0.5, mu=mu)
    grid = bf.Grid.symmetric(30.0, n_points)
    e0 = bf.e_bic_analytic(0.5, 0.7, mu)
    energies = np.linspace(e0 - 0.3, min(e0 + 0.2, 0.98 * mu), 48)
    kernels, mesh = solver._mesh_kernels(model, energies, grid)
    assert len(kernels) == 48
    assert min(solver.MESH_MIN_POINTS, n_points) <= mesh.n_points <= n_points
    assert mesh.x_max == pytest.approx(grid.x_max, rel=1e-14)
    for kernel in kernels:
        solver._check_grid(kernel, mesh)
    if mesh.n_points == n_points:
        assert mesh is grid


def test_mesh_grid_keeps_a_margin_at_every_momentum():
    # dx*|p| stays under MAX_PHASE_STEP where 2 x_max |p| / MAX_PHASE_STEP
    # lands on or next to a whole number of steps, and the grid holds at
    # most two points more than the fewest that pass
    grid = bf.Grid.symmetric(30.0, 1 << 15)
    steps = np.arange(400, 4000, 37)[:, None] + np.array([-1e-12, 0.0, 1e-12])
    for p in (steps * solver.MAX_PHASE_STEP / (2.0 * grid.x_max)).ravel():
        kernel = bf.GreenKernel(energy=0.0, n_bands=1, poles=np.array([-p], dtype=complex),
                                residues=np.eye(1)[None])
        mesh = solver._resolving_grid(grid, p)
        assert mesh.n_points < grid.n_points
        solver._check_grid(kernel, mesh)
        coarser = bf.Grid.symmetric(grid.x_max, mesh.n_points - 3)
        assert mesh.n_points == solver.MESH_MIN_POINTS or coarser.dx * p > solver.MAX_PHASE_STEP


# --- coupled subspace: the structural zero and one coverage warning ---------

@pytest.mark.filterwarnings("ignore:grid half-width")
def test_direct_path_keeps_the_structural_zero():
    # a delta on one channel of three: the coupled subspace is one site and
    # one channel, and its only eigenvalue lies farther than 1 from 1, so
    # the pick is the full map's structural zero, Re(lambda) - 1 = -1
    from bicforge.solver import _near_one
    a0 = np.array([[2.0, 0.15, 0.0], [0.15, 0.0, 0.0], [0.0, 0.0, -0.5]])
    model = bf.BandModel(3, 1.0, a0, np.zeros((3, 3)), np.zeros((3, 3)))
    pots = [bf.Delta(-1.0), None, None]
    grid = bf.Grid.symmetric(10.0, 257)
    op = _op(model, 1.9, grid, pots)
    assert op.shape == (1, 1) and abs(op.support_matrix()[0, 0] - 1.0) > 1.0
    lam, _, above = _near_one(op, 12, want_vectors=False)
    vals = np.linalg.eigvals(bf.assemble_map(model, 1.9, grid, pots))
    assert lam == vals[np.argmin(np.abs(vals - 1.0))]
    assert above == int(np.count_nonzero(vals.real > 1.0)) == 1


def test_one_coverage_warning_per_call():
    # each of this find_energy's 25 operators used to warn, quoting its own
    # rate; a call now warns once with the slowest rate its result reads.
    # Its eigenvalues see only the delta (no rate), not the kernel at the
    # mesh end -0.1 (0.447214); the state it returns at -0.5 reads its
    # kernel's kappa = 1, as solve_state's does
    model = bf.single_band_model(lam=-1.0)
    grid = bf.Grid.symmetric(5.0, 257)
    message = "grid half-width 5 is under 10 decay lengths (rate 1)"
    with pytest.warns(UserWarning) as record:
        reps = bf.find_energy(model, grid, UNIT_DELTA, -0.9, -0.1, mesh_points=20)
    assert [str(w.message) for w in record] == [message]
    assert reps[0].energy == pytest.approx(-0.5, abs=1e-12)
    with pytest.warns(UserWarning) as record:
        bf.solve_state(model, -0.5, grid, UNIT_DELTA)
    assert [str(w.message) for w in record] == [message]


def test_arnoldi_start_when_the_coupling_annuls_the_flat_vector():
    # B = (1 - sigma_x)/2 maps the flat vector to 0, so Arnoldi starts from
    # the flat vector of the coupled subspace instead
    from bicforge.solver import _near_one
    model = bf.soc_model(gamma=0.5, mu=1.0, b=np.array([[0.5, -0.5], [-0.5, 0.5]]))
    grid = bf.Grid.symmetric(20.0, 384)
    op = _op(model, 0.8, grid, bf.SocBic(0.5, 0.7))
    assert op.shape == (768, 768) and not op.coupling.psi.sum(axis=2).any()
    lam, _, above = _near_one(op, 12, want_vectors=False)
    vals = np.linalg.eigvals(bf.assemble_map(model, 0.8, grid, bf.SocBic(0.5, 0.7)))
    assert lam == pytest.approx(vals[np.argmin(np.abs(vals - 1.0))], abs=1e-10)
    assert above == int(np.count_nonzero(vals.real > 1.0))


# --- ARPACK on one BLAS thread ------------------------------------------------

@pytest.fixture
def pools_at_two():
    """Every OpenBLAS pool of the process at 2 threads, each back at its own
    count afterwards; skips where no pool is found."""
    pools = solver._blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread pool in this process")
    before = _threads(pools)
    for _, put in pools:
        put(2)
    yield pools
    for (_, put), n in zip(pools, before):
        put(n)


def _threads(pools):
    return [get() for get, _ in pools]


def _arnoldi_op(soc):
    return _op(soc, 0.8, bf.Grid.symmetric(22.0, 400), SCALED_WELL)


def test_arnoldi_runs_on_one_blas_thread(monkeypatch, soc, pools_at_two):
    op = _arnoldi_op(soc)
    seen, matvec = [], op._matvec

    def recorded(u):
        seen.append(_threads(pools_at_two))
        return matvec(u)

    monkeypatch.setattr(op, "_matvec", recorded)
    *_, converged = solver._arnoldi(op, 3, want_vectors=False)
    assert converged
    assert seen and all(t == [1] * len(pools_at_two) for t in seen)
    assert _threads(pools_at_two) == [2] * len(pools_at_two)


def test_blas_pools_restored_after_no_convergence(monkeypatch, soc, pools_at_two):
    eigs = solver.eigs
    monkeypatch.setattr(solver, "eigs", lambda op, **kwargs: eigs(op, maxiter=1, **kwargs))
    *_, converged = solver._arnoldi(_arnoldi_op(soc), 12, want_vectors=False)
    assert not converged
    assert _threads(pools_at_two) == [2] * len(pools_at_two)


def test_concurrent_serial_blocks_restore_the_pools(pools_at_two):
    # blocks open in several threads at once keep every pool at 1 until the
    # last one leaves; saving and restoring per block would leave it at 1
    inside = []

    def enter_and_leave():
        for _ in range(200):
            with solver._serial_blas():
                inside.append(_threads(pools_at_two))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(inside) == 800 and all(t == [1] * len(pools_at_two) for t in inside)
    assert _threads(pools_at_two) == [2] * len(pools_at_two)


def test_no_blas_pools_without_proc_maps(monkeypatch, soc):
    def unreadable(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    expected = solver._arnoldi(_arnoldi_op(soc), 3, want_vectors=False)[0]
    monkeypatch.setattr(solver, "open", unreadable, raising=False)
    solver._blas_pools.cache_clear()
    try:
        assert solver._blas_pools() == ()
        vals = solver._arnoldi(_arnoldi_op(soc), 3, want_vectors=False)[0]
    finally:
        monkeypatch.undo()
        solver._blas_pools.cache_clear()
    assert np.array_equal(vals, expected)


@pytest.mark.filterwarnings("ignore:grid half-width")
def test_near_edge_three_band_kernel_is_smooth_at_its_delta_root():
    # bench point model seed 1, round 2, model 1: poles at |p| = 0.085, 0.12
    # and 0.24, where the kernel read noise of about 1e-8 relative and the
    # solved root missed the closed form by 1.06e-10
    a0 = np.array([[-0.6468507311657, -0.012201502291798737, 0.004573738995202237],
                   [-0.012201502291798737, -0.6570661189070178, -0.0011665250916461168],
                   [0.004573738995202237, -0.0011665250916461168, -0.6317577642262803]])
    lam, lo, hi = -0.842592, -0.6652568534816713, -0.629536188547783
    (want,) = _delta_roots(a0, lam, lo, hi)
    zero = np.zeros((3, 3))
    model = bf.BandModel(3, 1.0, a0, zero, zero)
    k00 = [bf.residue_green(model, want + d)(0.0)[0, 0].real
           for d in (-1e-10, 0.0, 1e-10, 2e-10)]
    assert np.all(np.diff(k00) < 0)
    reps = bf.find_energy(model, bf.Grid.symmetric(40.0, 2049), [bf.Delta(lam), None, None],
                          lo, hi, mesh_points=48)
    assert [abs(r.energy - want) < 1e-12 for r in reps] == [True]


@pytest.mark.filterwarnings("ignore:grid half-width")
def test_secant_stays_inside_the_energy_window():
    # bench point model seed 24, round 14, model 1: the bracket widened by a
    # mesh step reached below the window's lower end, and the secant reported
    # a root at -0.5338, below every band
    a0 = np.array([[0.6291782586413265, 0.5691978592932316, 0.2172238808654517],
                   [0.5691978592932316, -0.23720143326423399, 0.10964124645115308],
                   [0.2172238808654517, 0.10964124645115308, -0.4799197169272888]])
    lam, lo, hi = -0.585321, -0.5221313318336042, 0.9524594470538853
    zero = np.zeros((3, 3))
    model = bf.BandModel(3, 1.0, a0, zero, zero)
    reps = bf.find_energy(model, bf.Grid.symmetric(40.0, 2049), [bf.Delta(lam), None, None],
                          lo, hi, mesh_points=48)
    assert [r.energy for r in reps] == [pytest.approx(0.848351223247338, abs=1e-10)]
    assert _delta_roots(a0, lam, lo, hi) == [pytest.approx(0.848351223247338, abs=1e-12)]
    assert all(lo <= r.energy <= hi for r in reps)


# --- warm starts along a bracket's secant chain ------------------------------

def _eigs_log(monkeypatch, fake=None):
    """Patch solver.eigs to record (op, k, warm, matvecs) per call, warm
    meaning a WARM_NCV factorization; fake(k, warm), where given, answers
    instead of ARPACK with eigenvalues, and unit vectors where asked for. An
    operator whose first pass the mesh batch solves, from the flat start in
    MESH_NCV steps, records (op, FIRST_PASS_K, False, MESH_NCV)."""
    calls, eigs = [], solver.eigs
    _record_batch(monkeypatch, lambda op: calls.append(
        (op, solver.FIRST_PASS_K, False, solver.MESH_NCV)))

    def recorded(op, k, **kwargs):
        warm = kwargs.get("ncv") is not None
        if fake is not None:
            calls.append((op, k, warm, 0))
            vals = fake(k, warm)
            vecs = np.eye(op.shape[0], len(vals), dtype=complex)
            return (vals, vecs) if kwargs["return_eigenvectors"] else vals
        count, matvec = [0], op._matvec
        op._matvec = lambda u: count.__setitem__(0, count[0] + 1) or matvec(u)
        try:
            return eigs(op, k=k, **kwargs)
        finally:
            del op._matvec
            calls.append((op, k, warm, count[0]))

    monkeypatch.setattr(solver, "eigs", recorded)
    return calls


def test_warm_probes_take_fewer_matvecs_than_a_flat_start(monkeypatch, soc, e_bic):
    # bic-verify's rescaled window: each refined bracket's first fine probe
    # starts flat, its later secant probes and its state solve start warm
    grid = bf.Grid.symmetric(30.0, 2048)
    calls = _eigs_log(monkeypatch)
    seeds, seed = [], solver._mesh_seed
    monkeypatch.setattr(solver, "_mesh_seed", lambda *a: seeds.append(a[2]) or seed(*a))
    lo, hi = _scaled_window(e_bic)
    reps = bf.find_energy(soc, grid, SCALED_WELL, lo, hi, mesh_points=48)
    assert [r.energy for r in reps] == [pytest.approx(0.72998, abs=5e-4)]
    mesh = [c for c in calls if c[0].grid is not grid]
    fine = [c for c in calls if c[0].grid is grid]
    assert mesh and not any(warm for _, _, warm, _ in mesh)
    assert fine[0][2] is False
    assert sum(not warm for _, _, warm, _ in fine) == len(seeds)
    warm = [matvecs for _, _, w, matvecs in fine if w]
    flat = [matvecs for _, _, w, matvecs in fine if not w]
    assert len(warm) >= 2 * len(seeds)   # a secant probe and the state each
    assert max(warm) <= 16 < 21 <= min(flat)
    assert {k for _, k, _, _ in calls} == {solver.FIRST_PASS_K}


@pytest.mark.parametrize("state", [False, True])
@pytest.mark.parametrize("outcome", ["no_convergence", "not_certified"])
def test_warm_pass_falls_back_to_the_flat_run(monkeypatch, soc, outcome, state):
    # a warm first pass that does not converge, or does not certify, reruns
    # from the flat start with MESH_K (a secant probe) or STATE_K (the state)
    from scipy.sparse.linalg import ArpackNoConvergence
    grid = bf.Grid.symmetric(30.0, 512)
    coupling = solver._coupling(soc, grid, SCALED_WELL)
    full = np.array([3.0, 2.5, 1.2, 0.9, 0.6, 0.2])

    def fake(k, warm):
        if not warm:
            return full
        if outcome == "no_convergence":
            raise ArpackNoConvergence("not converged", np.array([3.0]), None)
        return np.array([3.0, 2.5, 0.6])

    calls = _eigs_log(monkeypatch, fake)
    dim = coupling.support.size * coupling.rows.size
    chain = [np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)]
    if state:
        rep = solver._solve_state(soc, 0.8, grid, coupling, chain)
        lam, k = rep.operator_eigenvalue, solver.STATE_K
    else:
        lam, _ = solver._branch_value(soc, 0.8, grid, coupling, chain)
        k = solver.MESH_K
    assert [(k_, warm) for _, k_, warm, _ in calls] == [(solver.FIRST_PASS_K, True), (k, False)]
    assert lam == 0.9


def test_warm_start_keeps_the_roots(monkeypatch, soc, socbic_pot, e_bic):
    # the same roots, within REFINE_TOL, with every fine probe started flat
    grid = bf.Grid.symmetric(30.0, 2048)
    lo, hi = _scaled_window(e_bic)
    wells = [(SCALED_WELL, lo, hi), (socbic_pot, e_bic - 0.3, min(e_bic + 0.2, 0.98))]
    warm = [[r.energy for r in bf.find_energy(soc, grid, pot, a, b, mesh_points=48)]
            for pot, a, b in wells]
    near_one = solver._near_one
    monkeypatch.setattr(solver, "_near_one", lambda op, k, vectors, s=1.0, chain=None:
                        near_one(op, k, vectors, s))
    flat = [[r.energy for r in bf.find_energy(soc, grid, pot, a, b, mesh_points=48)]
            for pot, a, b in wells]
    assert [len(roots) for roots in warm] == [len(roots) for roots in flat] == [1, 1]
    assert np.abs(np.subtract(warm, flat)).max() < solver.REFINE_TOL


# --- the mesh's first passes as one lockstep Arnoldi batch -------------------

FIRST_PASS = (solver.FIRST_PASS_K, False, True)   # the set key of a flat first pass


def _soc_mesh(points=48):
    """The spin-orbit well of bic-verify --scale 0.9 (R = C = 1): model,
    potential, mesh grid and mesh energies."""
    return (bf.soc_model(gamma=0.5, mu=1.0), SCALED_WELL, bf.Grid.symmetric(30.0, 512),
            np.linspace(0.39, 0.98, points))


def _three_band_mesh():
    """A 3-band model with a linear term and a complex a0, a smooth well on
    every channel (R = C = 3), its grid and mesh energies."""
    a0 = np.array([[0.4, 0.2 - 0.1j, 0.05j], [0.2 + 0.1j, -0.3, 0.15], [-0.05j, 0.15, 0.1]])
    a1 = np.array([[0.0, 0.3j, 0.0], [-0.3j, 0.0, 0.1], [0.0, 0.1, 0.2]])
    model = bf.BandModel(3, 1.0, a0, a1, np.eye(3))
    pots = [bf.Scaled(bf.SocBic(0.5, 0.7), s) for s in (1.0, 0.6, -0.4)]
    return model, pots, bf.Grid.symmetric(20.0, 256), np.linspace(-0.2, 0.6, 16)


MESHES = {"soc": _soc_mesh, "three_band": _three_band_mesh}


def _mesh_ops(model, pots, grid, energies):
    kernels, _ = solver._mesh_kernels(model, energies, grid)
    coupling = solver._coupling(model, grid, pots)
    return [_ConvMap(k, grid, coupling) for k in kernels]


@pytest.mark.parametrize("case, channels", [("soc", 1), ("three_band", 3)])
def test_mesh_batch_matches_the_arpack_first_pass(case, channels):
    # every energy the batch solves reads ARPACK's three eigenvalues to 1e-12
    # relative, the same pick nearest 1 (of a pair equally near 1, either)
    # and the same count above 1
    ops, ref = (_mesh_ops(*MESHES[case]()) for _ in range(2))
    assert ops[0].coupling.rows.size == ops[0].coupling.cols.size == channels
    assert not ops[0].coupling.direct
    solver._solve_mesh_arnoldi(ops)
    solved = [(op, r) for op, r in zip(ops, ref) if FIRST_PASS in op.sets]
    assert len(solved) >= 0.9 * len(ops)
    for op, r in solved:
        got, want = op.sets[FIRST_PASS][0], solver._arnoldi(r, solver.FIRST_PASS_K, False)[0]
        tol = 1e-12 * np.abs(want).max()
        assert np.abs(np.subtract.outer(got, want)).min(axis=1).max() <= tol
        assert np.abs(np.subtract.outer(want, got)).min(axis=1).max() <= tol
        (lam, _, above), (lam_ref, _, above_ref) = (
            solver._near_one(o, solver.MESH_K, False) for o in (op, r))
        assert above == above_ref
        tied = [w for w in want if abs(abs(w - 1.0) - abs(lam_ref - 1.0)) <= tol]
        assert min(abs(lam - w) for w in tied) <= tol


@pytest.mark.parametrize("case", ["soc", "three_band"])
def test_mesh_batch_chunks_do_not_change_a_value(monkeypatch, case):
    # a chunk of one energy and one chunk of every energy give the same bits
    sets = []
    for entries in (1, 1 << 40):
        monkeypatch.setattr(solver, "STACK_ENTRIES", entries)
        ops = _mesh_ops(*MESHES[case]())
        solver._solve_mesh_arnoldi(ops)
        sets.append([op.sets.get(FIRST_PASS) for op in ops])
    one, whole = sets
    assert any(s is not None for s in one)
    assert [s is None for s in one] == [s is None for s in whole]
    assert all(a is None or np.array_equal(a[0], b[0]) for a, b in zip(one, whole))


@pytest.mark.parametrize("outcome", ["not_converged", "non_finite"])
def test_mesh_energy_the_batch_leaves_gets_the_arpack_outcome(monkeypatch, outcome):
    # an energy whose batch does not converge, or reads a non-finite number,
    # keeps no set, and its mesh value is the one ARPACK gives it alone
    model, pot, grid, energies = _soc_mesh(8)
    if outcome == "not_converged":
        monkeypatch.setattr(solver, "MESH_NCV", 5)
        left = set(energies)
    else:
        left, samples = {energies[1]}, solver.evaluate_uniform

        def poisoned(kernels, *args):
            out = samples(kernels, *args)
            if len(kernels) > 1:   # the batch's tables, not a single probe's
                out[[k.energy in left for k in kernels]] = np.nan
            return out

        monkeypatch.setattr(solver, "evaluate_uniform", poisoned)
    batched = []
    _record_batch(monkeypatch, lambda op: batched.append(op.kernel.energy))
    coupling = solver._coupling(model, grid, pot)
    kernels, _ = solver._mesh_kernels(model, energies, grid)
    got = solver._mesh_branch_values(energies, kernels, grid, coupling, {}, 1.0)
    assert set(batched) == set(energies) - left
    for e, value in zip(energies, got):
        if e in left:
            assert value == solver._branch_value(model, e, grid, coupling)


def test_mesh_batch_memory_does_not_grow_with_the_mesh():
    # each chunk holds at most STACK_ENTRIES entries of Krylov basis and
    # kernel transform, so ten times the mesh takes no more memory at once
    import tracemalloc
    peaks = []
    for points in (48, 480):
        ops = _mesh_ops(*_soc_mesh(points))
        tracemalloc.start()
        try:
            solver._solve_mesh_arnoldi(ops)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(FIRST_PASS in op.sets for op in ops[:48])
    assert peaks[1] < 1.2 * peaks[0]
    assert peaks[0] < 8 * 16 * solver.STACK_ENTRIES


def test_mesh_eigenvalues_do_not_depend_on_the_half_width(soc):
    # at equal dx the map on the support reads the kernel at the same
    # separations, so the slow kernel at the mesh end 0.98 (rate 0.18) moves
    # no mesh eigenvalue from half-width 30 to 60: a mesh read records only
    # the potential's decay
    energies = np.linspace(0.9, 0.98, 4)
    values = []
    for half_width, n in ((30.0, 512), (60.0, 1023)):
        grid = bf.Grid.symmetric(half_width, n)
        coupling = solver._coupling(soc, grid, SCALED_WELL)
        kernels, _ = solver._mesh_kernels(soc, energies, grid)
        values.append(solver._mesh_branch_values(energies, kernels, grid, coupling, {}, 1.0))
    assert bf.residue_green(soc, 0.98).decay_rate * 30.0 < 10.0
    (narrow, wide) = values
    assert [a for _, a in narrow] == [a for _, a in wide]
    assert np.abs([l1 - l2 for (l1, _), (l2, _) in zip(narrow, wide)]).max() < 1e-12
