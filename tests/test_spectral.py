import numpy as np
import pytest

import bicforge as bf
from bicforge.errors import ComplexInnerRoot, DegeneratePolynomial, ModelError
from bicforge.spectral import PoleLabel, RegionTag


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
        # E - H0(p) is singular at each pole to roundoff (worst 6.2e-15 here)
        for p in bf.poles(model, energy).roots:
            q = energy * np.eye(2) - model.h0(p)
            assert np.linalg.svd(q, compute_uv=False)[-1] < 1e-13 * np.abs(q).max()


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
    # 2m overflows at m = 1e308 and 1/(2m) at m = 1e-320
    for mass in (1e308, 1e-320):
        with pytest.raises(ModelError, match=r"2\*mass or 1/\(2\*mass\) is not finite$"):
            bf.single_band_model(mass=mass)


def test_non_finite_coefficients_name_the_first_energy():
    # 2m E overflows past about 9e307; unrefused, the eigensolve raises LinAlgError
    model = bf.two_band_model(0.0, 1.0, lam=-1.0)
    with pytest.raises(DegeneratePolynomial, match=r"not finite at energy 1e\+308$"):
        bf.poles_many(model, [0.3, 1e308, 1.5e308])


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
        moms = np.asarray(ps, dtype=complex)[:, None, None]
        formula = (moms * moms / (2.0 * model.mass)) * np.eye(n) + model.a0 + model.a1 * moms
        assert np.array_equal(stack, formula)
        assert np.array_equal(stack, np.array([model.h0(p) for p in ps]))

