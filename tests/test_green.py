import numpy as np
import pytest

import bicforge as bf
from bicforge.errors import DegeneratePoles, GapViolation, SingularG
from bicforge.green import apply_inverse_operator

SEPS = (-2.0, -0.7, -0.3, 0.0, 0.3, 0.7, 2.0)


def kernel_dev(k1, k2, seps=SEPS):
    return max(np.abs(k1(d) - k2(d)).max() for d in seps)


def residue_at(kernel, pole, tol=1e-10):
    """Residue of the one kernel term whose pole is within tol of `pole`."""
    (term,) = [t for t in kernel.terms if abs(t.pole - pole) < tol]
    return term.residue


def test_single_band_bound_kernel():
    k = bf.residue_green(bf.single_band_model(), -0.5)
    assert k(0.0)[0, 0] == pytest.approx(-1.0, abs=1e-12)
    for d in (0.5, -1.3):
        assert k(d)[0, 0] == pytest.approx(-np.exp(-abs(d)), abs=1e-12)


def test_single_band_extended_matches_standing_form():
    model = bf.single_band_model()
    for e in (0.2, 0.5, 1.9):
        k = bf.residue_green(model, e)
        p0 = np.sqrt(2 * e)
        for d in SEPS:
            want = np.sin(p0 * d) * np.sign(d) / p0
            assert abs(k(d)[0, 0] - want) < 1e-12


def test_two_band_mixed_kernel_structure():
    model = bf.two_band_model(mu=0.0, g=1.0)
    k = bf.residue_green(model, 0.875)
    poles = sorted((t.pole for t in k.terms), key=lambda p: (p.imag, p.real))
    want = [-0.5j, -np.sqrt(3.75), np.sqrt(3.75), 0.5j]
    assert np.allclose(poles, want, atol=1e-10)
    # real poles carry exactly zero imaginary part: that selects their profile
    assert sum(t.pole.imag == 0 for t in k.terms) == 2


def test_constant_coupling_closed_form_coefficients():
    model = bf.two_band_model(mu=0.0, g=1.0)
    k = bf.constantA_kernel(model, 0.5)
    p1 = np.sqrt(3.0)
    kappa = 1.0
    assert len(k.terms) == 4
    # a [v1 | c0 v1] with v1 = (1, 1), c0 = 1, a = -1/(2 kappa): the even
    # exp(-kappa|dx|) matrix, split as R = -i M at +i kappa and +i M at -i kappa
    m_exp = -np.ones((2, 2)) / (2 * kappa)
    assert np.allclose(residue_at(k, 1j * kappa), -1j * m_exp, atol=1e-12)
    assert np.allclose(residue_at(k, -1j * kappa), 1j * m_exp, atol=1e-12)
    # b [v2 | d0 v2] with v2 = (-1, 1), d0 = -1, b = -1/(2 p1): the sine
    # matrix, split as R = -M at +p1 and +M at -p1
    m_sin = -np.array([[-1.0, 1.0], [1.0, -1.0]]) / (2 * p1)
    assert np.allclose(residue_at(k, p1), -m_sin, atol=1e-12)
    assert np.allclose(residue_at(k, -p1), m_sin, atol=1e-12)


def test_constant_coupling_agrees_with_residues():
    rng = np.random.default_rng(12)
    for _ in range(20):
        mu = rng.uniform(-1.2, 1.2)
        g = rng.uniform(0.2, 1.8)
        s = np.hypot(mu, g)
        e = rng.uniform(-0.9 * s, 0.9 * s)
        model = bf.two_band_model(mu=mu, g=g)
        assert kernel_dev(bf.residue_green(model, e),
                          bf.constantA_kernel(model, e)) < 1e-10


def test_constant_coupling_guards():
    model = bf.two_band_model(mu=1.0, g=0.0)
    with pytest.raises(SingularG):
        bf.constantA_kernel(model, 0.0)
    model = bf.two_band_model(mu=0.6, g=0.8)
    with pytest.raises(GapViolation):
        bf.constantA_kernel(model, 1.5)
    with pytest.raises(DegeneratePoles):
        bf.residue_green(model, 1.0)  # band edge, coincident roots


def test_soc_closed_form_agrees_with_residues(e_bic):
    model = bf.soc_model(gamma=0.5, mu=1.0)
    for e in (-0.6, 0.1, e_bic):
        assert kernel_dev(bf.residue_green(model, e), bf.soc_kernel(model, e)) < 1e-10


def test_soc_kernel_term_structure(e_bic):
    k = bf.soc_kernel(bf.soc_model(gamma=0.5, mu=1.0), e_bic)
    poles = sorted((t.pole for t in k.terms), key=lambda p: (p.imag, p.real))
    assert [poles[0], poles[3]] == pytest.approx([-0.7j, 0.7j], abs=1e-6)
    assert [poles[1], poles[2]] == pytest.approx([-2.06325, 2.06325], abs=1e-4)
    r_mq, r_q = residue_at(k, poles[1]), residue_at(k, poles[2])
    # the cos*sign weight (i/2)(R_q + R_-q) and the odd exponential weight
    # (i/2)(R_up + R_low) are the gamma-driven pieces
    cs = 0.5j * (r_q + r_mq)
    assert np.abs(cs).max() > 0.1
    assert np.abs(cs + cs.T).max() < 1e-14  # antisymmetric (i sigma_y structure)


def test_soc_gamma_to_zero_drops_cosine_term():
    model = bf.soc_model(gamma=0.0, mu=1.0)
    k = bf.soc_kernel(model, 0.3)
    q = float(k.real_momenta.max())
    # R_q = -R_-q: the cos*sign weight (i/2)(R_q + R_-q) vanishes
    assert np.abs(residue_at(k, q) + residue_at(k, -q)).max() < 1e-15
    # and it still matches the generic route
    assert kernel_dev(bf.residue_green(model, 0.3), k) < 1e-12


def test_defining_identity_and_convergence(e_bic):
    cases = [
        (bf.single_band_model(), -0.5),
        (bf.single_band_model(), 0.5),
        (bf.two_band_model(mu=0.3, g=0.8), 0.1),
        (bf.soc_model(gamma=0.5, mu=1.0), e_bic),
    ]
    for model, e in cases:
        k = bf.residue_green(model, e)
        scale = np.abs(k(1.3)).max()
        r1 = np.abs(apply_inverse_operator(model, k, 1.3, step=1e-3)).max()
        r2 = np.abs(apply_inverse_operator(model, k, 1.3, step=5e-4)).max()
        assert r1 < 1e-5 * scale
        if r1 > 1e-9 * scale:  # truncation-dominated: check the order
            assert r1 / r2 > 3.0


def test_derivative_jump_is_2m():
    cases = [
        (bf.single_band_model(mass=1.0), -0.5),
        (bf.single_band_model(mass=2.0), 0.7),
        (bf.two_band_model(mu=0.3, g=0.8, mass=1.3), 0.2),
        (bf.soc_model(gamma=0.5, mu=1.0), 0.4),
    ]
    for model, e in cases:
        j = bf.derivative_jump(bf.residue_green(model, e))
        want = 2.0 * model.mass * np.eye(model.n_bands)
        assert np.abs(j - want).max() < 1e-8


def test_transpose_symmetry_constant_coupling():
    model = bf.two_band_model(mu=0.4, g=0.7)
    k = bf.residue_green(model, 0.2)
    for d in (0.3, 1.1, 2.7):
        assert np.allclose(k(d), k(-d).T, atol=1e-12)


def test_sign_odd_parts_flip_for_linear_term(e_bic):
    model = bf.soc_model(gamma=0.5, mu=1.0)
    k = bf.soc_kernel(model, e_bic)
    for d in (0.4, 1.3):
        even = (k(d) + k(-d)) / 2.0
        odd = (k(d) - k(-d)) / 2.0
        # odd part is purely the gamma-driven antisymmetric piece
        assert np.abs(odd + odd.T).max() < 1e-12
        assert np.abs(even - even.T).max() < 1e-12
        assert np.allclose(k(-d), k(d).T, atol=1e-12)
    # and the odd part vanishes when gamma does
    k0 = bf.soc_kernel(bf.soc_model(gamma=0.0, mu=1.0), 0.3)
    for d in (0.4, 1.3):
        assert np.abs(k0(d) - k0(-d)).max() < 1e-13


def test_random_three_band_kernels_with_linear_term():
    # pole sets without p -> -p symmetry: one term per pole, no pairing
    rng = np.random.default_rng(3)

    def herm():
        a = rng.uniform(-0.5, 0.5, (3, 3)) + 1j * rng.uniform(-0.5, 0.5, (3, 3))
        return (a + a.conj().T) / 2

    for _ in range(30):
        model = bf.BandModel(3, 1.0, herm(), herm(), np.eye(3))
        e = rng.uniform(-0.3, 0.3)
        roots = bf.poles(model, e).roots
        assert max(min(abs(r + s) for s in roots) for r in roots) > 0.1
        k = bf.residue_green(model, e)
        assert len(k.terms) == 6
        for d in (1.3, -1.3):
            r = apply_inverse_operator(model, k, d, step=1e-3)
            assert np.abs(r).max() < 1e-5 * np.abs(k(d)).max()
        assert np.abs(bf.derivative_jump(k) - 2.0 * np.eye(3)).max() < 1e-8


def test_evanescent_terms_do_not_overflow_on_the_growing_side():
    # e^{kappa |dx|} overflows past kappa |dx| ~ 709; each exponential must
    # be evaluated on its decaying side only, or inf * 0 gives NaN
    e = -50.0
    kappa = np.sqrt(2.0 * abs(e))
    k = bf.residue_green(bf.single_band_model(), e)
    dx = np.linspace(-80.0, 80.0, 1601)
    g = k.evaluate(dx)[:, 0, 0]
    assert np.all(np.isfinite(g))
    assert np.allclose(g, -np.exp(-kappa * np.abs(dx)) / kappa, rtol=1e-12, atol=0)


def test_residues_are_annihilated_at_every_pole():
    # each residue is v w^H with (E - H0(p)) v = 0 at its pole
    rng = np.random.default_rng(3)

    def herm():
        a = rng.uniform(-0.5, 0.5, (3, 3)) + 1j * rng.uniform(-0.5, 0.5, (3, 3))
        return (a + a.conj().T) / 2

    for _ in range(30):
        model = bf.BandModel(3, 1.0, herm(), herm(), np.eye(3))
        e = rng.uniform(-0.3, 0.3)
        for t in bf.residue_green(model, e).terms:
            lhs = (e * np.eye(3) - model.h0(t.pole)) @ t.residue
            assert np.abs(lhs).max() < 1e-11 * np.abs(t.residue).max()


def test_residue_green_computes_the_dispersion_polynomial_once(monkeypatch):
    import sys
    from bicforge import spectral
    calls = []
    batched = spectral.poles_many

    def counted(*args):
        calls.append(args)
        return batched(*args)

    # count through every module that binds the batched function, which
    # poles also calls, not spectral alone
    for name, mod in list(sys.modules.items()):
        if name.startswith("bicforge") and getattr(mod, "poles_many", None) is batched:
            monkeypatch.setattr(mod, "poles_many", counted)
    rng = np.random.default_rng(8)
    herm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    models = [bf.single_band_model(), bf.two_band_model(mu=0.3, g=1.0),
              bf.soc_model(gamma=0.5, mu=1.0),
              bf.BandModel(3, 1.0, (herm + herm.conj().T) / 4, np.zeros((3, 3)), np.eye(3))]
    for model in models:
        calls.clear()
        bf.residue_green(model, 0.2)
        assert len(calls) == 1


# --- the batched forms ---------------------------------------------------------

def _three_band(a1: bool) -> bf.BandModel:
    a0 = np.array([[0.4, 0.2, 0.0], [0.2, -0.3, 0.1j], [0.0, -0.1j, 0.1]])
    lin = np.array([[0.2, 0.0, 0.3], [0.0, -0.1, 0.0], [0.3, 0.0, 0.0]])
    return bf.BandModel(3, 1.0, a0, lin if a1 else np.zeros((3, 3)), np.eye(3))


BATCH_MODELS = [bf.single_band_model(mass=0.7), bf.two_band_model(mu=0.3, g=1.0),
                bf.soc_model(gamma=0.5, mu=1.0), _three_band(False), _three_band(True)]
BATCH_IDS = ["1-band", "2-band", "2-band-a1", "3-band", "3-band-a1"]


@pytest.mark.parametrize("model", BATCH_MODELS, ids=BATCH_IDS)
def test_batch_equals_one_energy_at_a_time(model):
    # bit for bit: the batch shares its linear algebra calls, not its rounding
    energies = list(np.random.default_rng(4).uniform(-2.0, 2.0, 17))
    kernels = bf.residue_green_many(model, energies)
    tables = bf.evaluate_many(kernels, SEPS, [0], [model.n_bands - 1])
    assert all(t.tobytes() == k.evaluate(SEPS, [0], [model.n_bands - 1]).tobytes()
               for t, k in zip(tables, kernels))
    for e, ps, k in zip(energies, bf.poles_many(model, energies), kernels):
        one = bf.poles(model, e)
        assert ps.roots.dtype == one.roots.dtype
        assert ps.roots.tobytes() == one.roots.tobytes()
        assert ps.labels == one.labels and ps.energy == e
        alone = bf.residue_green(model, e)
        assert [t.pole for t in k.terms] == [t.pole for t in alone.terms]
        assert all(t.residue.tobytes() == u.residue.tobytes()
                   for t, u in zip(k.terms, alone.terms))
    assert bf.residue_green_many(model, []) == bf.poles_many(model, []) == []


@pytest.mark.parametrize("model, edge", [(bf.single_band_model(), 0.0),
                                         (bf.two_band_model(mu=0.0, g=1.0), 1.0)],
                         ids=["1-band", "2-band"])
def test_batch_raises_the_first_band_edge_as_alone(model, edge):
    with pytest.raises(DegeneratePoles) as alone:
        bf.residue_green(model, edge)
    with pytest.raises(DegeneratePoles) as batch:
        bf.residue_green_many(model, [-0.4, edge, 0.3, -edge])
    assert str(batch.value) == str(alone.value)
    assert batch.value.energy == edge


def test_evaluate_many_refuses_kernels_with_unequal_term_counts():
    one = bf.residue_green(bf.single_band_model(), 0.5)
    two = bf.residue_green(bf.two_band_model(mu=0.3, g=1.0), 0.2)
    with pytest.raises(ValueError):
        bf.evaluate_many([one, two], SEPS)


# --- accuracy near band edges ----------------------------------------------------

def _worst_relative_errors(kernel, reference):
    """Largest relative pole and residue errors of kernel against a list of
    (pole, residue) pairs, each matched to the kernel's nearest pole."""
    pole_err = res_err = 0.0
    for p, r in reference:
        t = min(kernel.terms, key=lambda t: abs(t.pole - p))
        pole_err = max(pole_err, abs(t.pole - p) / abs(p))
        res_err = max(res_err, np.abs(t.residue - r).max() / np.abs(r).max())
    return pole_err, res_err


def _eigen_terms(model, e):
    """Closed-form poles and residues of an a1 = 0 model from eigh(a0) =
    (eps_j, P_j): p = +/-sqrt(2m(E - eps_j)), residue -(m/p) P_j."""
    eps, vecs = np.linalg.eigh(model.a0)
    out = []
    for eps_j, v in zip(eps, vecs.T):
        p = complex(np.emath.sqrt(2.0 * model.mass * (e - eps_j)))
        out += [(s * p, -(model.mass / (s * p)) * np.outer(v, v.conj())) for s in (1, -1)]
    return out


def _random_three_band():
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    a0 = (q * np.array([-0.9, 0.1, 0.7])) @ q.T
    return bf.BandModel(3, 0.8, (a0 + a0.T) / 2.0, np.zeros((3, 3)), np.eye(3))


# the near-edge 3-band model of the delta-root regression in test_solver.py
EDGE_A0 = np.array([[-0.6468507311657, -0.012201502291798737, 0.004573738995202237],
                    [-0.012201502291798737, -0.6570661189070178, -0.0011665250916461168],
                    [0.004573738995202237, -0.0011665250916461168, -0.6317577642262803]])


@pytest.mark.parametrize("model", [bf.two_band_model(mu=0.3, g=0.7, mass=1.3),
                                   bf.BandModel(3, 1.0, EDGE_A0, np.zeros((3, 3)), np.eye(3)),
                                   _random_three_band()],
                         ids=["2-band", "3-band-edge", "3-band-random"])
def test_poles_and_residues_near_the_lowest_band_edge(model):
    # 1e-4 above the edge two poles sit at |p| ~ 0.015. The reference loses
    # bits of its own in E - eps_j, so the bound is 3e-12 relative; worst
    # measured 6.3e-13 (3-band-edge), a margin of 4.7x
    e0 = np.linalg.eigvalsh(model.a0)[0]
    for d in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        k = bf.residue_green(model, e0 + d)
        assert max(_worst_relative_errors(k, _eigen_terms(model, e0 + d))) < 3e-12


@pytest.mark.parametrize("gamma, mu, mass", [(0.5, 1.0, 1.0), (0.3, 0.8, 1.5), (0.8, 1.2, 0.7)])
def test_spin_orbit_poles_and_residues_match_the_closed_forms(gamma, mu, mass):
    # across the mixed window, 1e-4 from its edges included: 5e-12 relative;
    # worst measured 1.1e-12, a margin of 4.6x
    model = bf.soc_model(gamma=gamma, mu=mu, mass=mass)
    edges = np.array([1e-4, 1e-3, 1e-2, 1e-1])
    for e in np.concatenate([-mu + edges, np.linspace(-0.9 * mu, 0.9 * mu, 7), mu - edges]):
        k = bf.residue_green(model, e)
        closed = bf.soc_kernel(model, e)
        p_plus, p_minus = bf.soc_poles(gamma, mu, mass, e)
        for p in (p_plus, -p_plus, p_minus, -p_minus):
            assert min(abs(t.pole - p) for t in k.terms) < 5e-12 * abs(p)
        terms = [(t.pole, t.residue) for t in closed.terms]
        assert max(_worst_relative_errors(k, terms)) < 5e-12
