import numpy as np
import pytest

import bicforge as bf
from bicforge.errors import ComplexInnerRoot, DegeneratePolynomial, ModelError
from bicforge.spectral import PoleLabel, RegionTag


def test_dispersion_coeffs_two_band_decoupled():
    model = bf.two_band_model(mu=1.0, g=0.0)
    c = bf.dispersion_coeffs(model, 0.0)
    assert np.allclose(c, [-1.0, 0.0, 0.0, 0.0, 0.25], atol=1e-12)


def test_dispersion_coeffs_two_band_coupled():
    model = bf.two_band_model(mu=1.0, g=0.5)
    c = bf.dispersion_coeffs(model, 0.0)
    # E^2 - g^2 + p^4/4m^2 - E p^2/m - mu^2 at E=0: p^4/4 - 1.25
    assert np.allclose(c, [-1.25, 0.0, 0.0, 0.0, 0.25], atol=1e-12)


def test_dispersion_coeffs_single_band():
    model = bf.single_band_model()
    c = bf.dispersion_coeffs(model, -0.5)
    assert np.allclose(c, [-0.5, 0.0, -0.5], atol=1e-14)


def test_dispersion_leading_coefficient_exact():
    model = bf.two_band_model(mu=0.3, g=0.8, mass=2.0)
    c = bf.dispersion_coeffs(model, 0.37)
    assert c[-1] == (-1.0 / 4.0) ** 2


def test_poles_two_band_decoupled():
    model = bf.two_band_model(mu=1.0, g=0.0)
    ps = bf.poles(model, 0.0)
    real = ps.real_poles
    assert np.allclose(sorted(real), [-np.sqrt(2), np.sqrt(2)], atol=1e-10)
    imag = sorted(p.imag for p in np.concatenate([ps.upper_poles, ps.lower_poles]))
    assert np.allclose(imag, [-np.sqrt(2), np.sqrt(2)], atol=1e-10)


def test_poles_spin_orbit_embedded_energy():
    model = bf.soc_model(gamma=0.5, mu=1.0)
    ps = bf.poles(model, 0.6917497)
    assert np.allclose(np.abs(ps.real_poles), 2.06325, atol=1e-4)
    evan = np.concatenate([ps.upper_poles, ps.lower_poles])
    assert np.allclose(sorted(p.imag for p in evan), [-0.7, 0.7], atol=1e-5)


def test_poles_single_band_bound():
    ps = bf.poles(bf.single_band_model(), -0.5)
    assert len(ps.roots) == 2
    assert all(lab is not PoleLabel.REAL for lab in ps.labels)
    assert np.allclose(sorted(r.imag for r in ps.roots), [-1.0, 1.0], atol=1e-12)


def test_poles_deterministic_ordering():
    model = bf.soc_model(gamma=0.4, mu=0.9)
    a = bf.poles(model, 0.3)
    b = bf.poles(model, 0.3)
    assert np.array_equal(a.roots, b.roots)
    assert a.labels == b.labels


def test_root_residual_invariant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mu = rng.uniform(-1.5, 1.5)
        g = rng.uniform(0.0, 2.0)
        gamma = rng.choice([0.0, rng.uniform(0.1, 0.8)])
        mass = rng.uniform(0.5, 2.0)
        if gamma:
            model = bf.soc_model(gamma=gamma, mu=mu, mass=mass)
        else:
            if mu == 0 and g == 0:
                continue
            model = bf.two_band_model(mu=mu, g=g, mass=mass)
        energy = rng.uniform(-3, 3)
        coeffs = bf.dispersion_coeffs(model, energy)
        ps = bf.poles(model, energy)
        lead = abs(coeffs[-1])
        for p in ps.roots:
            f = np.polynomial.polynomial.polyval(p, coeffs)
            assert abs(f) < 1e-9 * lead * max(1.0, abs(p)) ** (2 * model.n_bands)


def _closed_under_negation(roots: np.ndarray) -> bool:
    return all(np.abs(roots + r).min() < 1e-9 * (1.0 + abs(r)) for r in roots)


def test_negation_closure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = rng.uniform(-1, 1)
        g = rng.uniform(0.1, 1.5)
        model = bf.two_band_model(mu=mu, g=g)
        assert _closed_under_negation(bf.poles(model, rng.uniform(-2, 2)).roots)
    for _ in range(20):
        model = bf.soc_model(gamma=rng.uniform(0.1, 0.8), mu=rng.uniform(0.5, 1.5))
        assert _closed_under_negation(bf.poles(model, rng.uniform(-1, 2)).roots)


def test_classify_region_examples():
    model = bf.two_band_model(mu=1.0, g=0.0)
    assert bf.classify_region(model, 2.0).tag is RegionTag.ALL_REAL
    assert bf.classify_region(model, -2.0).tag is RegionTag.ALL_COMPLEX
    reg = bf.classify_region(model, 0.0)
    assert reg.tag is RegionTag.MIXED
    assert reg.gap_lo == pytest.approx(-1.0, abs=1e-12)
    assert reg.gap_hi == pytest.approx(1.0, abs=1e-12)


def test_region_monotonic_transitions_at_band_edges():
    mu, g = 0.6, 0.8
    s = np.hypot(mu, g)
    model = bf.two_band_model(mu=mu, g=g)
    eps = 1e-8
    tags = [bf.classify_region(model, e).tag
            for e in (-s - eps, -s + eps, s - eps, s + eps)]
    assert tags == [RegionTag.ALL_COMPLEX, RegionTag.MIXED,
                    RegionTag.MIXED, RegionTag.ALL_REAL]


def test_soc_poles_fig_values():
    pp, pm = bf.soc_poles(0.5, 1.0, 1.0, 0.6917497)
    assert pp.real == pytest.approx(2.0632496, abs=1e-6)
    assert abs(pp.imag) < 1e-12
    assert pm.real == pytest.approx(0.0, abs=1e-12)
    assert pm.imag == pytest.approx(0.7, abs=1e-6)


def test_soc_poles_gamma_zero_reduction():
    pp, pm = bf.soc_poles(0.0, 1.0, 1.0, 0.0)
    assert pp == pytest.approx(np.sqrt(2))
    assert pm == pytest.approx(1j * np.sqrt(2))


def test_soc_poles_complex_inner_root():
    with pytest.raises(ComplexInnerRoot):
        bf.soc_poles(0.5, 1.0, 1.0, -3.0)


def test_soc_poles_agree_with_companion_route():
    rng = np.random.default_rng(3)
    for _ in range(25):
        gamma = rng.uniform(0.1, 0.9)
        mu = rng.uniform(0.3, 1.5)
        mass = rng.uniform(0.5, 2.0)
        energy = rng.uniform(-0.8 * mu, 3.0)
        try:
            pp, pm = bf.soc_poles(gamma, mu, mass, energy)
        except ComplexInnerRoot:
            continue
        model = bf.soc_model(gamma=gamma, mu=mu, mass=mass)
        roots = bf.poles(model, energy).roots
        for p in (pp, pm):
            d = np.abs(roots - p).min()
            assert d < 1e-10 * (1.0 + abs(p))


def test_degenerate_polynomial_guard():
    with pytest.raises((DegeneratePolynomial, OverflowError)):
        model = bf.single_band_model(mass=1e308)
        bf.dispersion_coeffs(model, 0.1)


def test_non_finite_coefficients_name_the_first_energy():
    # the circle samples overflow at 1e300; 1/(2m) overflows at m = 1e-320.
    # Both ended in a LinAlgError from the companion eigensolve.
    model = bf.two_band_model(0.0, 1.0, lam=-1.0)
    with pytest.raises(DegeneratePolynomial, match=r"not finite at energy 1e\+300$"):
        bf.poles_many(model, [0.3, 1e300, 2e300])
    with pytest.raises(DegeneratePolynomial, match="not finite at energy -0.5$"):
        bf.dispersion_coeffs_many(bf.single_band_model(mass=1e-320), [-0.5, 0.5])


def test_model_validation():
    with pytest.raises(ModelError):
        bf.BandModel(2, 1.0, np.array([[0, 1j], [1j, 0]]),
                     np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ModelError):
        bf.BandModel(2, -1.0, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ModelError):
        bf.two_band_model(mu=0.0, g=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_h0_many_is_bit_equal_to_stacked_h0(n):
    # the kinetic term squares each momentum as a scalar; a vectorised
    # complex square rounds differently in the last bit
    rng = np.random.default_rng(20 + n)

    def herm():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (a + a.conj().T) / 2

    model = bf.BandModel(n, 0.7, herm(), herm(), np.eye(n))
    for ps in (list(rng.normal(size=9) * 3),
               list(rng.normal(size=9) * 3 + 1j * rng.normal(size=9) * 3),
               list(3 * np.exp(2j * np.pi * np.arange(2 * n + 1) / (2 * n + 1)))):
        stack = model.h0_many(ps)
        assert stack.shape == (len(ps), n, n)
        formula = np.array([(p * p / (2.0 * model.mass)) * np.eye(n) + model.a0 + model.a1 * p
                            for p in ps])
        assert np.array_equal(stack, formula)
        assert np.array_equal(stack, np.array([model.h0(p) for p in ps]))


def test_pole_set_keeps_its_dispersion_polynomial():
    model = bf.soc_model(gamma=0.5, mu=1.0)
    ps = bf.poles(model, 0.3)
    assert np.array_equal(ps.coeffs, bf.dispersion_coeffs(model, 0.3))
