import numpy as np
import pytest

import bicforge as bf
from bicforge.errors import (GridTooCoarse, NoNearUnitEigenvalue,
                             NoSolutionInRange)
from bicforge.solver import _ConvMap

UNIT_DELTA = bf.Delta(1.0)


def test_assembled_map_shape_and_delta_fixed_point():
    model = bf.single_band_model(lam=-1.0)
    grid = bf.Grid.symmetric(40.0, 1025)
    m = bf.assemble_map(model, -0.5, grid, UNIT_DELTA)
    assert m.shape == (1025, 1025)
    lam = np.linalg.eigvals(m)
    assert abs(lam[np.argmin(np.abs(lam - 1))] - 1.0) < 2e-3


def test_operator_matches_dense_matrix():
    model = bf.soc_model(gamma=0.5, mu=1.0)
    grid = bf.Grid.symmetric(20.0, 384)
    rng = np.random.default_rng(0)
    v = rng.normal(size=768) + 1j * rng.normal(size=768)
    well = bf.SocBic(0.5, 0.7)
    # a single spec through B, and per-channel lists of one and two terms
    for pot in (well, [well, None], [bf.Scaled(well, 0.9), well]):
        dense = bf.assemble_map(model, 0.55, grid, pot)
        op = _ConvMap(model, 0.55, grid, pot)
        assert np.allclose(op.matvec(v), dense @ v, atol=1e-11 * np.abs(dense @ v).max())


def test_socbic_map_has_unit_eigenvalue_at_analytic_energy(e_bic, soc, socbic_pot,
                                                           grid_30_2048):
    m = bf.assemble_map(soc, e_bic, grid_30_2048, socbic_pot)
    assert m.shape == (4096, 4096)
    op = _ConvMap(soc, e_bic, grid_30_2048, socbic_pot)
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
    grid, scan_grid = bf.Grid.symmetric(30.0, 768), bf.Grid.symmetric(30.0, 512)
    fine = []
    eigs = solver.eigs

    def counted(op, *args, **kwargs):
        if op.shape[0] == 2 * grid.n_points:
            fine.append(op.kernel.energy)
        return eigs(op, *args, **kwargs)

    monkeypatch.setattr(solver, "eigs", counted)
    lo, hi = _scaled_window(e_bic)
    mesh = np.linspace(lo, hi, 12)
    reps = bf.find_energy(soc, grid, SCALED_WELL, lo, hi, mesh_points=12,
                          scan_grid=scan_grid)
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
    branch_value = solver._branch_value
    monkeypatch.setattr(solver, "_branch_value",
                        lambda *a: (branch_value(*a)[0], None))
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
    op = _ConvMap(model, energy, grid, UNIT_DELTA)
    _, _, above = _near_one(op, 12, want_vectors=False)
    assert above == _dense_count_above_one(model, energy, grid, UNIT_DELTA) == count


def test_count_exact_after_converged_arnoldi(soc):
    from bicforge.solver import _near_one
    grid = bf.Grid.symmetric(22.0, 400)
    nearest, counts = [], []
    for energy in (0.8, 0.85):
        op = _ConvMap(soc, energy, grid, SCALED_WELL)
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
    op = _ConvMap(soc, 0.8, bf.Grid.symmetric(30.0, 512), SCALED_WELL)
    lam, _, above = solver._near_one(op, 12, want_vectors=False)
    assert lam == 1.5
    assert above is None


# --- first Arnoldi pass: three eigenvalues, kept only when they certify ------

def _recording_eigs(monkeypatch, fake=None):
    """Patch solver.eigs to record (op, k) per call and answer with fake(k),
    or with the real eigs when fake is None."""
    from bicforge import solver
    calls, eigs = [], solver.eigs

    def recorded(op, k, **kwargs):
        calls.append((op, k))
        return eigs(op, k=k, **kwargs) if fake is None else fake(k)

    monkeypatch.setattr(solver, "eigs", recorded)
    return calls


@pytest.mark.parametrize("energy", [0.8, 0.85, 0.72998])
def test_first_pass_matches_dense_reference(monkeypatch, soc, energy):
    # both sides of the branch switch near 0.82, and next to the root
    from bicforge.solver import _near_one
    calls = _recording_eigs(monkeypatch)
    grid = bf.Grid.symmetric(22.0, 400)
    op = _ConvMap(soc, energy, grid, SCALED_WELL)
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
    op = _ConvMap(soc, 0.8, bf.Grid.symmetric(30.0, 512), SCALED_WELL)
    got_lam, _, got_above = solver._near_one(op, 12, want_vectors=False)
    assert [k for _, k in calls] == ks
    assert (got_lam, got_above) == (lam, above)


def test_find_energy_certifies_every_operator_on_first_pass(monkeypatch, soc, e_bic):
    # bic-verify's rescaled window and mesh: one eigs call per operator, each
    # with k=3, so no probe, secant step or final state pays the fallback
    calls = _recording_eigs(monkeypatch)
    lo, hi = _scaled_window(e_bic)
    reps = bf.find_energy(soc, bf.Grid.symmetric(30.0, 2048), SCALED_WELL, lo, hi,
                          mesh_points=48, scan_grid=bf.Grid.symmetric(30.0, 1024))
    assert [r.energy for r in reps] == [pytest.approx(0.72998, abs=5e-4)]
    ops = [op for op, _ in calls]
    assert len({id(op) for op in ops}) == len(ops) > 48
    assert {k for _, k in calls} == {3}


def test_root_on_a_mesh_point_is_reported_once(monkeypatch):
    # the mesh point 0.25 is the root itself: both adjacent brackets close on
    # it, and the two reports are one root
    from bicforge import solver
    monkeypatch.setattr(solver, "_branch_value",
                        lambda model, e, *a: (complex(1.0 + (e - 0.25)), None))
    monkeypatch.setattr(solver, "solve_state", lambda model, e, *a, **kw: solver.SolveReport(
        energy=float(e), operator_eigenvalue=1.0, state=None, fixed_point_residual=0.0))
    model = bf.single_band_model(lam=-1.0)
    reps = bf.find_energy(model, bf.Grid.symmetric(20.0, 256), UNIT_DELTA, 0.0, 1.0,
                          mesh_points=5)
    assert [r.energy for r in reps] == [0.25]
