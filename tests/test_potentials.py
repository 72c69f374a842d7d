import numpy as np
import pytest

import bicforge as bf
from bicforge.errors import InvalidRadicand, ModelError, SingularDenominator
from bicforge.potentials import decay_scale, load_tabulated, spec_from_dict


def test_soc_bic_value_at_origin():
    # recomputed from the closed form: 2 nu^2 (3 nu^2 - a) / (a' - nu^2)
    assert bf.potential_soc_bic(0.5, 0.7, 0.0) == pytest.approx(-0.4719646, abs=1e-6)


def test_soc_bic_even_and_decaying():
    rng = np.random.default_rng(10)
    x = rng.uniform(0.0, 12.0, 100)
    assert np.allclose(bf.potential_soc_bic(0.5, 0.7, x),
                       bf.potential_soc_bic(0.5, 0.7, -x), atol=1e-15)
    far = bf.potential_soc_bic(0.5, 0.7, 25.0)
    assert far < 0.0 and abs(far) < 1e-13
    # asymptotic rate exp(-2 nu |x|)
    ratio = bf.potential_soc_bic(0.5, 0.7, 10.0) / bf.potential_soc_bic(0.5, 0.7, 9.0)
    assert ratio == pytest.approx(np.exp(-2 * 0.7), rel=1e-3)


def test_soc_bic_far_tail_is_zero_where_cosh_overflows():
    # cosh^2(nu x) overflows past |nu x| ~ 355: the formula read inf/inf there
    # and returned NaN after numpy's overflow warnings. bic-verify at
    # half-width 1100 then read QuasiBIC with a null residual
    x = np.linspace(-1100.0, 1100.0, 16384)
    v = bf.potential_soc_bic(0.5, 0.7, x)
    far = np.abs(0.7 * x) > 360.0
    assert far.sum() > 8000 and np.all(v[far] == 0.0)
    near = np.abs(0.7 * x) < 170.0
    assert np.array_equal(v[near], bf.potential_soc_bic(0.5, 0.7, x[near]))
    assert bf.potential_soc_bic(0.5, 0.7, 1e300) == 0.0


def test_non_finite_samples_are_a_model_error():
    # a strength or factor that overflows on the grid reached the solver and
    # the oracle as inf
    grid = bf.Grid.symmetric(1e-8, 128)
    with pytest.raises(ModelError, match="not finite"):
        bf.sample_potential(bf.Delta(1e300), grid)
    with pytest.raises(ModelError, match="not finite"):
        bf.sample_potential(bf.Scaled(bf.Delta(1e300), 1e10), bf.Grid.symmetric(1.0, 65))


def test_soc_bic_invalid_radicand():
    with pytest.raises(InvalidRadicand):
        bf.SocBic(gamma=2.0, nu=0.8)
    with pytest.raises(InvalidRadicand):
        bf.potential_soc_bic(1.5, 1.0, 0.0)


def test_soc_bic_singular_denominator():
    # gamma^2 nu^2 = 0.04 < 1, but nu^2 = 4 >= alpha' = 1 + sqrt(0.96)
    with pytest.raises(SingularDenominator, match="nu\\^2 = 4 must be < alpha' = 1.9798"):
        bf.SocBic(0.1, 2.0)
    with pytest.raises(SingularDenominator):
        bf.potential_soc_bic(0.1, 2.0, 0.0)


def test_e_bic_values():
    assert bf.e_bic_analytic(0.5, 0.7, 1.0) == pytest.approx(0.6917497, abs=1e-7)
    assert bf.e_bic_analytic(0.0, 0.7, 1.0) == pytest.approx(0.755)
    with pytest.raises(InvalidRadicand):
        bf.e_bic_analytic(2.0, 0.7, 1.0)


def test_e_bic_inside_mixed_window():
    # holds on the embedded regime nu^2/2 < mu + sqrt(mu^2 - nu^2 gamma^2);
    # wider wells push the designed state below the open band (conventional)
    from bicforge.spectral import RegionTag
    rng = np.random.default_rng(11)
    for _ in range(30):
        mu = rng.uniform(0.4, 1.5)
        gamma = rng.uniform(0.05, 0.9)
        nu = rng.uniform(0.1, min(0.95 / gamma, 0.95 * mu / gamma, np.sqrt(mu)))
        e0 = bf.e_bic_analytic(gamma, nu, mu)
        assert -mu < e0 < mu
        model = bf.soc_model(gamma=gamma, mu=mu)
        assert bf.classify_region(model, e0).tag is RegionTag.MIXED
    # outside that regime the formula continues smoothly below the window
    assert bf.e_bic_analytic(0.1, 2.5, 0.5) < -0.5


def test_delta_sampling_integral():
    grid = bf.Grid.symmetric(20.0, 257)
    v = bf.sample_potential(bf.Delta(-1.7), grid)
    assert np.count_nonzero(v) == 1
    assert np.sum(v * grid.weights) == pytest.approx(-1.7, abs=1e-12)


def test_scaled_delta_folds_strength():
    spec = bf.Scaled(bf.Scaled(bf.Delta(-2.0), 0.5), 3.0)
    assert decay_scale(spec) == np.inf


def test_tabulated_file_roundtrip(tmp_path):
    xs = np.linspace(-8.0, 8.0, 401)
    vs = bf.potential_soc_bic(0.5, 0.7, xs)
    path = tmp_path / "well.tsv"
    np.savetxt(path, np.column_stack([xs, vs]))
    tab = load_tabulated(path)
    grid = bf.Grid.symmetric(6.0, 301)
    sampled = bf.sample_potential(tab, grid)
    assert np.allclose(sampled, bf.potential_soc_bic(0.5, 0.7, grid.x), atol=1e-4)


def test_tabulated_zero_extension_warns():
    tab = bf.Tabulated(x=np.array([-1.0, 1.0]), v=np.array([0.3, 0.3]))
    grid = bf.Grid.symmetric(5.0, 65)
    with pytest.warns(UserWarning, match="zero-extending"):
        v = bf.sample_potential(tab, grid)
    assert v[0] == 0.0 and v[-1] == 0.0
    assert v[grid.center_index()] == pytest.approx(0.3)


def test_spec_from_dict_variants(tmp_path):
    assert spec_from_dict(None) is None
    assert spec_from_dict({"variant": "none"}) is None
    d = spec_from_dict({"variant": "delta", "strength": -0.5})
    assert isinstance(d, bf.Delta) and d.strength == -0.5
    s = spec_from_dict({"variant": "scaled", "factor": 1.1,
                        "base": {"variant": "soc_bic", "gamma": 0.5, "nu": 0.7}})
    assert isinstance(s, bf.Scaled) and isinstance(s.base, bf.SocBic)
    with pytest.raises(ValueError):
        spec_from_dict({"variant": "mystery"})


def test_grid_invariants():
    grid = bf.Grid.symmetric(10.0, 101)
    assert grid.x_min == -10.0 and grid.x_max == 10.0
    assert grid.x[grid.center_index()] == pytest.approx(0.0, abs=1e-12)
    assert np.sum(grid.weights) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        bf.Grid(dx=0.1, n_points=32)  # below the minimum size
    with pytest.raises(ValueError):
        bf.Grid(dx=-0.1, n_points=128)


def test_spinor_field_validation():
    grid = bf.Grid.symmetric(5.0, 64)
    vals = np.ones((64, 2), dtype=complex)
    field = bf.SpinorField(grid=grid, values=vals)
    assert field.n_bands == 2
    assert field.norm_sq() == pytest.approx(2 * 64 * grid.dx)
    with pytest.raises(ValueError):
        bf.SpinorField(grid=grid, values=np.ones((10, 2)))
    bad = vals.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        bf.SpinorField(grid=grid, values=bad)
