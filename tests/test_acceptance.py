"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import bicforge as bf
from bicforge import oracle
from bicforge.criterion import Verdict
from bicforge.green import apply_inverse_operator

GAMMA, NU, MU = 0.5, 0.7, 1.0
Q_PAPER = 2.06325
UNIT_DELTA = bf.Delta(1.0)

_shared: dict = {}


def run_cli(*argv):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bicforge.cli", *argv],
                          capture_output=True, text=True)
    return proc, time.perf_counter() - t0


def report(n, text):
    print(f"\nACCEPTANCE PASS [{n}] {text}")


def test_criterion_1_pole_reproduction():
    model = bf.soc_model(gamma=GAMMA, mu=MU)
    e_bic = bf.e_bic_analytic(GAMMA, NU, MU)
    ps = bf.poles(model, e_bic)
    reals = ps.real_poles
    assert len(reals) == 2
    assert np.allclose(np.abs(reals), Q_PAPER, atol=1e-4)
    assert np.allclose(reals, [-reals[1], reals[1]], atol=1e-10)
    bf.poles(model, e_bic)  # warm
    t0 = time.perf_counter()
    n_rep = 200
    for _ in range(n_rep):
        bf.poles(model, e_bic)
    per_call = (time.perf_counter() - t0) / n_rep
    assert per_call < 1e-3
    report(1, f"real poles {reals[1]:.6f} vs {Q_PAPER} "
              f"(dev {abs(reals[1]) - Q_PAPER:+.2e}), {per_call*1e6:.0f} us/call")


def test_criterion_2_exact_bic_certification():
    proc, elapsed = run_cli("bic-verify", "--model", "soc", "--gamma", "0.5",
                            "--nu", "0.7", "--mu", "1")
    assert proc.returncode == 0
    r = json.loads(proc.stdout)["results"]
    assert r["verdict"] == "ExactBIC"
    assert r["residual_rel"] < 1e-3
    assert r["tail_rel"] < 1e-3
    assert elapsed < 60.0
    _shared["baseline_residual"] = r["residual_rel"]

    # doubling the grid reduces the residual
    model = bf.soc_model(gamma=GAMMA, mu=MU)
    pot = bf.SocBic(GAMMA, NU)
    res = {}
    for n in (2048, 4096):
        grid = bf.Grid.symmetric(30.0, n)
        reps = bf.find_energy(model, grid, pot, 0.67, 0.71, mesh_points=5)
        br = bf.classify(model, reps[0].state, pot, reps[0].energy)
        res[n] = br.residual_rel
    assert res[4096] < res[2048]
    report(2, f"ExactBIC, residual {r['residual_rel']:.2e}, tail {r['tail_rel']:.2e}, "
              f"residual {res[2048]:.1e}->{res[4096]:.1e} on doubling, {elapsed:.1f}s")


def test_criterion_3_quasi_bic_contrast():
    proc, elapsed = run_cli("bic-verify", "--model", "soc", "--gamma", "0.5",
                            "--nu", "0.7", "--mu", "1", "--scale", "1.1")
    assert proc.returncode == 0
    r = json.loads(proc.stdout)["results"]
    assert r["verdict"] == "QuasiBIC"
    baseline = _shared.get("baseline_residual")
    if baseline is None:
        pytest.skip("criterion 2 must run first for the baseline residual")
    assert r["residual_rel"] >= 10.0 * baseline
    assert elapsed < 60.0
    report(3, f"QuasiBIC at scale 1.1, residual {r['residual_rel']:.2e} = "
              f"{r['residual_rel']/baseline:.0f}x baseline, {elapsed:.1f}s")


def test_criterion_4_closed_form_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(100):
        lam = -rng.uniform(0.05, 3.0)
        m = rng.uniform(0.3, 3.0)
        mu = rng.uniform(0.0, 1.5)
        g = rng.uniform(0.1, 2.0)
        s = np.hypot(mu, g)

        sol1 = bf.single_band_bound(lam, m)
        assert abs(sol1.e_b + lam * lam * m / 2) < 1e-10
        assert abs(sol1.kappa - m * abs(lam)) < 1e-10

        lc = bf.lambda_critical(mu, g, m)
        assert abs(bf.two_band_bound_energy(mu, g, lc, m).e_b + s) < 1e-10

        assert abs(bf.two_band_bound_energy(mu, 0.0, lam, m).e_b
                   - (mu - lam * lam * m / 2)) < 1e-10

        b = np.array([[lam, 0.0], [0.0, 0.0]])
        res = bf.general_b_kappa(b, mu, g, m)
        sol2 = bf.two_band_solution(mu, g, lam, m)
        assert abs(res.kappa - sol2.kappa) < 1e-10
        assert abs(res.e_b - sol2.e_b) < 1e-10
        if sol2.amp_ext:
            assert abs(sol2.amp_loc / sol2.amp_ext - sol2.p_real / sol2.kappa) < 1e-10

    assert abs(bf.lambda_critical(0.0, 1.0, 1.0) + 4.0) < 1e-10
    assert abs(bf.two_band_bound_energy(0.0, 1.0, -1.0, 1.0).e_b - 0.875) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, f"closed-form identities at 1e-10 over 100 draws, {elapsed:.2f}s")


def test_criterion_5_boundary_dichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(43)
    for _ in range(40):
        mu = rng.uniform(0.0, 1.2)
        g = rng.uniform(0.1, 1.5)
        m = rng.uniform(0.5, 2.0)
        lc = bf.lambda_critical(mu, g, m)
        lam = rng.uniform(0.98 * lc, -0.02)
        sol = bf.two_band_solution(mu, g, lam, m)
        b = np.array([[lam, 0.0], [0.0, 0.0]])
        assert np.linalg.norm(bf.boundary_residual(sol, b, m)) < 1e-10
    for lam in (-0.1, -0.3, -1.0, -2.0):
        mode = bf.bare_extended_mode(0.0, 1.0, lam, 1.0)
        b = np.array([[lam, 0.0], [0.0, 0.0]])
        assert np.linalg.norm(bf.boundary_residual(mode, b, 1.0)) >= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, f"constructed solutions < 1e-10, bare extended mode >= 1e-3, "
              f"{elapsed:.2f}s")


def test_criterion_6_green_identities():
    t0 = time.perf_counter()
    model1 = bf.single_band_model()
    for e in (0.2, 0.7, 1.9):
        k = bf.residue_green(model1, e)
        p0 = np.sqrt(2 * e)
        for d in (-2.0, -0.4, 0.0, 0.4, 2.0):
            assert abs(k(d)[0, 0] - np.sin(p0 * d) * np.sign(d) / p0) < 1e-12

    rng = np.random.default_rng(44)
    for _ in range(20):
        mu = rng.uniform(-1.2, 1.2)
        g = rng.uniform(0.2, 1.8)
        s = np.hypot(mu, g)
        e = rng.uniform(-0.9 * s, 0.9 * s)
        model = bf.two_band_model(mu=mu, g=g)
        ka, kb = bf.residue_green(model, e), bf.constantA_kernel(model, e)
        dev = max(np.abs(ka(d) - kb(d)).max() for d in (-2.0, -0.3, 0.0, 0.3, 2.0))
        assert dev < 1e-10

    soc = bf.soc_model(gamma=GAMMA, mu=MU)
    e_bic = bf.e_bic_analytic(GAMMA, NU, MU)
    k = bf.residue_green(soc, e_bic)
    scale = np.abs(k(1.3)).max()
    r1 = np.abs(apply_inverse_operator(soc, k, 1.3, step=1e-3)).max()
    r2 = np.abs(apply_inverse_operator(soc, k, 1.3, step=5e-4)).max()
    assert r1 < 1e-5 * scale
    assert r1 / r2 > 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f"kernel identities pass (FD identity {r1/scale:.1e} rel, "
              f"order ratio {r1/r2:.1f}), {elapsed:.1f}s")


def test_criterion_7_oracle_embedding():
    t0 = time.perf_counter()
    e_bic = bf.e_bic_analytic(GAMMA, NU, MU)
    soc = bf.soc_model(gamma=GAMMA, mu=MU)
    grid = bf.Grid.symmetric(30.0, 4096)  # n = 8192/N
    h = oracle.assemble(soc, grid, bf.SocBic(GAMMA, NU))
    pairs = oracle.eigen_near(h, e_bic, 7)
    tails = {e: oracle.localization(st, 15.0).tail_mass for e, st in pairs}
    localized = [e for e, t in tails.items() if t < 1e-3]
    assert len(localized) == 1
    assert abs(localized[0] - e_bic) < 2e-3
    others = [t for e, t in tails.items() if e != localized[0]]
    assert all(t > 0.3 for t in others)

    model = bf.two_band_model(mu=0.0, g=1.0, lam=-1.0)
    grid2 = bf.Grid.symmetric(40.0, 3072)
    h2 = oracle.assemble(model, grid2, UNIT_DELTA)
    pairs2 = oracle.eigen_near(h2, 0.875, 7)
    for e, st in pairs2:
        tail = oracle.localization(st, 20.0).tail_mass
        if abs(e - 0.875) < 0.1:
            assert tail > 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(7, f"one embedded localized state at {localized[0]:.6f} "
              f"(tail {tails[localized[0]]:.1e}); quasi case has none; {elapsed:.0f}s")


def test_criterion_8_critical_coupling_transition():
    t0 = time.perf_counter()
    grid = bf.Grid.symmetric(30.0, 1025)
    lams = -4.31 + 0.03 * np.arange(21)  # straddles -4 without touching it
    verdicts = []
    for lam in lams:
        model = bf.two_band_model(mu=0.0, g=1.0, lam=lam)
        sol = bf.two_band_solution(0.0, 1.0, lam, 1.0)
        br = bf.classify(model, sol.field_on(grid), UNIT_DELTA, sol.e_b)
        verdicts.append(br.verdict)
    flips = [i for i in range(len(lams) - 1)
             if verdicts[i] is Verdict.CONVENTIONAL
             and verdicts[i + 1] is Verdict.QUASI_BIC]
    assert len(flips) == 1
    lo, hi = lams[flips[0]], lams[flips[0] + 1]
    assert lo < -4.0 < hi
    assert hi - lo <= 0.03 + 1e-12
    assert all(v is Verdict.CONVENTIONAL for v in verdicts[:flips[0] + 1])
    assert all(v is Verdict.QUASI_BIC for v in verdicts[flips[0] + 1:])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, f"verdict flips ConventionalBound->QuasiBIC in [{lo:.2f}, {hi:.2f}] "
              f"around lambda_c = -4, {elapsed:.1f}s")
