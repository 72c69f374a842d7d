"""Seed-driven workloads and the independent references that check them.

A workload is an endless, deterministic sequence of rounds. A round is
what the single closed-loop client issues before it looks at the clock
again: a list of `bicforge` argv lists plus a check. The program sees only
argv and the model files a round writes; everything a check compares
against is computed here, from the seed, without calling bicforge.

Parameters that change a round's cost (gamma, nu, scale) are stratified:
round i falls in cell i % 4 of a 2 x 2 split of the (gamma, nu) box, paired
with one scale, and the seed draws the point inside the cell. Every run
visits the cells in the same order, so its median does not hinge on which
corner of the box a few draws happened to land in.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

MU = 1.0          # the shipped SocBic well certifies ExactBIC only at mu=1, m=1
GAMMA = (0.3, 0.7)
NU = (0.5, 0.9)
# certify stays near the paper's example well (gamma, nu) = (0.5, 0.7): across
# the full box a scaled call costs 2.4-4.8 s, and with 4-6 rounds per run the
# mix of cheap and dear rounds swung run throughput by a quarter
CERTIFY_GAMMA = (0.45, 0.55)
CERTIFY_NU = (0.65, 0.75)
SCALES = (0.9, 0.95, 1.05, 1.1)
ORACLE_N = 1536
POINT_N, POINT_HALF = 2049, 40.0
POINT_MESH = 48   # bic-verify's --mesh-points, stated on the command line
# find_energy misses a root that shares a mesh interval with a band edge, or
# lies in the last interval below the edge at the window's top (bench/NOTES.md,
# open defects); a timed point model is kept only if each of its roots lies
# at least this many mesh steps from every band edge, and edge_probes()
# measure the defect on fixed models instead
EDGE_STEPS = 3.0

# (gamma half, nu half) per cell, diagonal first so short runs see both extremes
CELLS = ((0, 0), (1, 1), (0, 1), (1, 0))


@dataclass
class Item:
    """Outcome of one checked unit: a CLI call, or one row of a scan."""

    label: str
    # ok | fail: a root the solver did not deliver or delivered twice, the
    # documented find_energy defect of point items | mismatch: anything else
    # that is wrong or missing, a nonzero exit or an exception included
    status: str = "ok"
    detail: str = ""

    def fail(self, detail: str) -> "Item":
        self.status, self.detail = "fail", detail
        return self

    def mismatch(self, detail: str) -> "Item":
        self.status, self.detail = "mismatch", detail
        return self


@dataclass
class Call:
    rc: int | str
    stdout: str
    stderr: str


@dataclass
class Round:
    argvs: list[list[str]]
    check: Callable[[list[Call]], list[Item]]
    files: list[str] = field(default_factory=list)


@dataclass
class Probe:
    """One untimed call on fixed inputs that shows a known defect; the
    traced run counts its misses in the per-layer metric `metric`."""

    metric: str
    argv: list[str]
    check: Callable[[Call], Item]


def soc_params(seed: int, i: int) -> tuple[float, float]:
    """gamma, nu of round i: a seeded point in the middle half of cell i % 4."""
    cg, cn = CELLS[i % len(CELLS)]
    u, v = 0.25 + 0.5 * np.random.default_rng([seed, 0x52, i]).random(2)
    return (round(float(GAMMA[0] + (GAMMA[1] - GAMMA[0]) * (cg + u) / 2.0), 6),
            round(float(NU[0] + (NU[1] - NU[0]) * (cn + v) / 2.0), 6))


def e_bic(gamma: float, nu: float, mu: float = MU) -> float:
    """Embedded energy of the cosh-ratio well, -nu^2/2 + sqrt(mu^2 - nu^2 gamma^2)."""
    return -nu**2 / 2.0 + float(np.sqrt(mu**2 - nu**2 * gamma**2))


def _json(call: Call) -> dict:
    return json.loads(call.stdout)["results"]


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][-200:] if lines else ""


def _rc_ok(call: Call, item: Item) -> bool:
    if call.rc != 0:
        item.mismatch(f"exit {call.rc}: {_last_line(call.stderr)}")
        return False
    return True


def _table_ok(path: str, rows: int, cols: int) -> str | None:
    """None when the TSV holds `rows` finite rows of `cols` columns."""
    try:
        data = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        return f"{os.path.basename(path)}: {exc}"
    if data.shape != (rows, cols) or not np.all(np.isfinite(data)):
        return f"{os.path.basename(path)}: shape {data.shape}, want ({rows}, {cols})"
    return None


# --- certify ----------------------------------------------------------------

def certify_round(seed: int, i: int, workdir: str) -> Round:
    """Exact-BIC certification at scale 1 (with both TSV outputs), then the
    same well rescaled, which must lose certification by 10x in residual."""
    u, v = np.random.default_rng([seed, 0x5C, i]).random(2)
    gamma = round(float(CERTIFY_GAMMA[0] + (CERTIFY_GAMMA[1] - CERTIFY_GAMMA[0]) * u), 6)
    nu = round(float(CERTIFY_NU[0] + (CERTIFY_NU[1] - CERTIFY_NU[0]) * v), 6)
    scale = SCALES[i % len(SCALES)]
    spec = os.path.join(workdir, f"spectrum_{i}.tsv")
    wave = os.path.join(workdir, f"wave_{i}.tsv")
    base = ["bic-verify", "--gamma", repr(gamma), "--nu", repr(nu), "--mu", repr(MU)]
    e0 = e_bic(gamma, nu)

    def check(calls: list[Call]) -> list[Item]:
        tag = f"gamma={gamma} nu={nu}"
        exact = Item(f"certify[{i}] scale=1 {tag}")
        scaled = Item(f"certify[{i}] scale={scale} {tag}")
        resid1 = None
        if _rc_ok(calls[0], exact):
            r = _json(calls[0])
            if r["verdict"] != "ExactBIC":
                exact.mismatch(f"verdict {r['verdict']}")
            elif abs(r["energy"] - e0) > 1e-4:
                exact.mismatch(f"|E - e_bic| = {abs(r['energy'] - e0):.3g} > 1e-4")
            else:
                bad = _table_ok(spec, 801, 5) or _table_ok(wave, 4096, 5)
                if bad:
                    exact.mismatch(bad)
                else:
                    resid1 = r["residual_rel"]
        if _rc_ok(calls[1], scaled):
            r = _json(calls[1])
            if resid1 is None:
                scaled.mismatch("no certified scale=1 residual to contrast with")
            elif not r["residual_rel"] >= 10.0 * resid1:
                scaled.mismatch(f"residual {r['residual_rel']:.3g} < 10 x {resid1:.3g}")
        return [exact, scaled]

    return Round([base + ["--spectrum-out", spec, "--wave-out", wave],
                  base + ["--scale", repr(scale)]], check, [spec, wave])


# --- scan -------------------------------------------------------------------

SCAN_ROWS = 3  # odd, so the 1.0 row is on the grid


def scan_round(seed: int, i: int, workdir: str) -> Round:
    """One `scan --param scale` over 0.9:1.1 on the thread pool."""
    gamma, nu = soc_params(seed, i)
    argv = ["scan", "--param", "scale", "--range", f"0.9:1.1:{SCAN_ROWS}",
            "--gamma", repr(gamma), "--nu", repr(nu), "--mu", repr(MU), "--jobs", "2"]
    params = np.linspace(0.9, 1.1, SCAN_ROWS)
    centre = SCAN_ROWS // 2
    e0 = e_bic(gamma, nu)

    def check(calls: list[Call]) -> list[Item]:
        items = [Item(f"scan[{i}] scale={p:.4g} gamma={gamma} nu={nu}") for p in params]
        call = calls[0]
        if call.rc != 0:
            return [it.mismatch(f"exit {call.rc}: {_last_line(call.stderr)}") for it in items]
        # csv.reader, not split(","): error messages hold commas and are quoted
        header, *rows = list(csv.reader(io.StringIO(call.stdout))) or [[]]
        if header != ["param", "energy", "residual_rel", "tail_rel", "verdict"] \
                or len(rows) != SCAN_ROWS or any(len(row) != 5 for row in rows):
            return [it.mismatch(f"malformed CSV ({len(rows)} rows)") for it in items]
        resid = []
        for it, row, p in zip(items, rows, params):
            if abs(float(row[0]) - p) > 1e-12:
                it.mismatch(f"param {row[0]} != {p:.12g}")
            elif row[4].startswith("Error"):
                it.mismatch(row[4])
            resid.append(float(row[2]) if row[2] else np.inf)
        mid = items[centre]
        if mid.status == "ok":
            if int(np.argmin(resid)) != centre:
                mid.mismatch(f"minimum residual at scale {params[int(np.argmin(resid))]:.4g}")
            elif rows[centre][4] != "ExactBIC":
                mid.mismatch(f"scale=1 verdict {rows[centre][4]}")
            elif abs(float(rows[centre][1]) - e0) > 1e-4:
                mid.mismatch(f"|E - e_bic| = {abs(float(rows[centre][1]) - e0):.3g} > 1e-4")
        return items

    return Round([argv], check)


# --- point ------------------------------------------------------------------

def delta_roots(a0: np.ndarray, lam: float, lo: float, hi: float,
                mass: float = 1.0) -> list[float]:
    """Bound energies in (lo, hi) of a delta of strength lam on channel 1.

    Roots of lam * sum_{closed j} |V_1j|^2 (-m / kappa_j) = 1 with
    kappa_j = sqrt(2m(eps_j - E)), from eigh(a0) = (eps, V) alone. The left
    side grows monotonically to +inf below each band edge, so each interval
    between consecutive edges holds at most one root.
    """
    eps, vecs = np.linalg.eigh(a0)
    weight = np.abs(vecs[0]) ** 2

    def f(e: float) -> float:
        closed = eps > e
        kappa = np.sqrt(2.0 * mass * (eps[closed] - e))
        return lam * float(np.sum(weight[closed] * (-mass / kappa))) - 1.0

    gap = 1e-9 * (1.0 + np.abs(eps).max())   # edges this close to an end are the end
    edges = [lo] + [float(e) for e in eps if lo + gap < e < hi - gap] + [hi]
    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        a += 1e-13 * (1.0 + abs(a))
        b -= 1e-13 * (1.0 + abs(b))
        if f(a) < 0.0 < f(b):
            roots.append(brentq(f, a, b, xtol=1e-15, rtol=1e-15, maxiter=200))
    return roots


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def _model_doc(a0: np.ndarray, lam: float) -> dict:
    nb = a0.shape[0]
    b = np.zeros((nb, nb))
    b[0, 0] = 1.0
    return {"n_bands": nb, "mass": 1.0, "a0": _pairs(a0), "a1": _pairs(np.zeros((nb, nb))),
            "b": _pairs(b),
            "potentials": [{"variant": "delta", "strength": lam}] + [None] * (nb - 1)}


def _check_energies(call: Call, item: Item, want: list[float]) -> Item:
    if call.rc == 3 and want:
        return item.fail(f"missed {len(want)} root(s) {[round(w, 6) for w in want]}: "
                         f"{_last_line(call.stderr)}")
    if call.rc == 3:
        return item                       # no root in the window: exit 3 is right
    if not _rc_ok(call, item):
        return item
    got = sorted(_json(call)["all_energies"])
    unmatched = list(want)
    problems = []
    for e in got:
        near = [w for w in want if abs(w - e) <= 1e-8]
        if not near:
            return item.mismatch(f"energy {e!r} matches no root of {want}")
        if near[0] in unmatched:
            unmatched.remove(near[0])
        else:
            problems.append(f"root {near[0]:.6f} reported twice")
    if unmatched:
        problems.append(f"missed root(s) {[round(w, 6) for w in unmatched]}")
    if problems:
        item.fail("; ".join(problems))
    return item


def _two_band(rng, mu_half: int) -> np.ndarray:
    """a0 = mu sigma_z + g sigma_x, mu in half `mu_half` of [-1, 1]."""
    mu = round(float(-1.0 + rng.uniform(mu_half, mu_half + 1.0)), 6)
    g = round(rng.uniform(0.3, 1.0), 6)
    return np.array([[mu, g], [g, -mu]])


def _three_band(rng) -> np.ndarray:
    """Random real symmetric a0 with eigenvalues in [-1, 1]."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    a0 = (q * np.sort(rng.uniform(-1.0, 1.0, 3))) @ q.T
    return (a0 + a0.T) / 2.0


def _window(a0: np.ndarray) -> tuple[float, float]:
    """The a0 spectrum, stopping short of the outer edges, where coincident
    poles are rejected by design."""
    eps = np.linalg.eigvalsh(a0)
    pad = 1e-4 * (eps[-1] - eps[0])
    return float(eps[0] + pad), float(eps[-1] - pad)


def edge_steps(a0: np.ndarray, roots: list[float], lo: float, hi: float) -> float:
    """Least distance, in mesh steps of the window, from a root to a band
    edge; inf without roots."""
    eps = np.linalg.eigvalsh(a0)
    step = (hi - lo) / (POINT_MESH - 1)
    return float(np.min(np.abs(np.subtract.outer(roots, eps)))) / step if roots \
        else float("inf")


def _point_model(draw: Callable[[], np.ndarray], lam: float):
    """The first drawn a0 whose roots all clear the band edges by EDGE_STEPS."""
    for _ in range(10_000):
        a0 = draw()
        lo, hi = _window(a0)
        want = delta_roots(a0, lam, lo, hi)
        if edge_steps(a0, want, lo, hi) >= EDGE_STEPS:
            return a0, lo, hi, want
    raise RuntimeError(f"no point model clears the band edges at lambda={lam}")


def _model_argv(path: str, lo: float, hi: float) -> list[str]:
    return ["bic-verify", "--model-file", path, "--n-points", str(POINT_N),
            "--half-width", repr(POINT_HALF), "--mesh-points", str(POINT_MESH),
            f"--e-window={lo!r}:{hi!r}"]


def point_round(seed: int, i: int, workdir: str) -> Round:
    """Delta-coupled constant-coupling models: closed form, 2- and 3-band
    solves through model files, and a kernel cross-check table."""
    rng = np.random.default_rng([seed, 0xD1, i])
    # each round holds one delta strength from each quarter of [-1.5, -0.5]
    # and both signs of mu, so rounds cost alike; every single draw is
    # still uniform over the full range
    lams = [round(float(-1.5 + 0.25 * (q + rng.uniform())), 6) for q in rng.permutation(4)]
    halves = rng.permutation(2)
    draws = [lambda: _two_band(rng, halves[0]), lambda: _three_band(rng),
             lambda: _two_band(rng, halves[1]), lambda: _three_band(rng)]
    picked = [_point_model(draw, lam) for draw, lam in zip(draws, lams)]
    models = [(a0, lam) for (a0, *_), lam in zip(picked, lams)]
    a2, lam2 = models[0]
    mu, g = float(a2[0, 0]), float(a2[0, 1])
    kc_seed = int(rng.integers(0, 2**31))

    argvs = [["delta-bound", "--two-band", "--mu", repr(mu), "--g", repr(g),
              "--lambda", repr(lam2)]]
    wants = []
    for k, ((a0, lam), (_, lo, hi, want)) in enumerate(zip(models, picked)):
        path = os.path.join(workdir, f"model{k}_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_model_doc(a0, lam), fh)
        wants.append(want)
        argvs.append(_model_argv(path, lo, hi))
    argvs.append(["kernel-check", "--seed", str(kc_seed)])
    s = float(np.hypot(mu, g))
    gap_roots = delta_roots(a2, lam2, -s + 1e-12, s)

    def check(calls: list[Call]) -> list[Item]:
        closed = Item(f"point[{i}] delta-bound mu={mu} g={g} lambda={lam2}")
        if _rc_ok(calls[0], closed):
            r = _json(calls[0])
            if gap_roots and not (r["in_gap"] and abs(r["e_b"] - gap_roots[0]) <= 1e-10):
                closed.mismatch(f"e_b {r['e_b']!r} in_gap={r['in_gap']}, root {gap_roots[0]!r}")
            elif not gap_roots and r["in_gap"]:
                closed.mismatch(f"in_gap e_b {r['e_b']!r} but no root in the gap")
        items = [closed]
        for k, ((a0, _), want) in enumerate(zip(models, wants)):
            label = f"point[{i}] model{k} {a0.shape[0]}-band roots={len(want)}"
            items.append(_check_energies(calls[1 + k], Item(label), want))
        kc = Item(f"point[{i}] kernel-check seed={kc_seed}")
        if _rc_ok(calls[-1], kc):
            bad = [row["check"] for row in _json(calls[-1])["rows"]
                   if row["status"] not in ("pass", "info")]
            if bad:
                kc.mismatch(f"failed rows {bad}")
        items.append(kc)
        return items

    return Round(argvs, check)


def delta_strength(a0: np.ndarray, e: float, mass: float = 1.0) -> float:
    """The delta strength on channel 1 that puts a bound root at energy e:
    the inverse of sum_{closed j} |V_1j|^2 (-m / kappa_j), as in delta_roots."""
    eps, vecs = np.linalg.eigh(a0)
    closed = eps > e
    kappa = np.sqrt(2.0 * mass * (eps[closed] - e))
    return 1.0 / float(np.sum(np.abs(vecs[0, closed]) ** 2 * (-mass / kappa)))


# (a0, band edge, side, mesh steps): the probe puts one root that many steps
# below (-1) or above (+1) the edge; sigma_x has bands -1, 1, the 3-band
# matrix -1, 0, 1 with the edge at 0 in the middle of a mesh interval
PROBE = tuple((np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, -1, d) for d in (0.25, 0.75, 1.25, 2.0)) \
    + tuple((np.array([[0.0, 0.6, 0.0], [0.6, 0.0, 0.8], [0.0, 0.8, 0.0]]), 0.0, 1, d)
            for d in (0.25, 0.75))


def edge_probes(workdir: str) -> list[Probe]:
    """The find_energy band-edge defect on fixed inputs, the same for every
    seed, so the count of misses is a constant of the code."""
    probes = []
    for k, (a0, edge, side, d) in enumerate(PROBE):
        lo, hi = _window(a0)
        lam = round(delta_strength(a0, edge + side * d * (hi - lo) / (POINT_MESH - 1)), 6)
        path = os.path.join(workdir, f"probe{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_model_doc(a0, lam), fh)
        label = f"edge probe {a0.shape[0]}-band, root {d} steps {'below' if side < 0 else 'above'}" \
                f" the edge at {edge}, lambda={lam}"
        want = delta_roots(a0, lam, lo, hi)
        probes.append(Probe("solver.find_energy.edge_misses", _model_argv(path, lo, hi),
                            lambda call, label=label, want=want:
                            _check_energies(call, Item(label), want)))
    return probes


# --- oracle -----------------------------------------------------------------

# The spin-orbit oracle wells are the centres of the four (gamma, nu) cells,
# not seeded draws. When a box standing wave lies within about 1e-4 of
# e_bic, the dense diagonalization mixes the two and the embedded state's
# tail mass exceeds the 1e-3 the check allows (seeded draw gamma=0.442794,
# nu=0.773578: 1.17e-3, box state 6e-5 away; 1 of 40 seeded draws). The
# nearest box state of each centre is at least 3e-3 away (tail <= 4e-8).
ORACLE_WELLS = tuple((GAMMA[0] + (GAMMA[1] - GAMMA[0]) * (cg + 0.5) / 2.0,
                      NU[0] + (NU[1] - NU[0]) * (cn + 0.5) / 2.0) for cg, cn in CELLS)


# the near-degenerate seeded draw above, a fixed probe of that defect
DEGENERATE_WELL = (0.442794, 0.773578)


def _soc_oracle(gamma: float, nu: float) -> tuple[list[str], Callable[[Call, Item], Item]]:
    """The spin-orbit oracle call and its check: exactly one localized state
    (tail_mass < 1e-3), within 2e-3 of e_bic."""
    e0 = e_bic(gamma, nu)
    argv = ["oracle", "--gamma", repr(gamma), "--nu", repr(nu), "--mu", repr(MU),
            "--n", str(ORACLE_N), "--target", repr(e0), "--k", "5"]

    def check(call: Call, item: Item) -> Item:
        if _rc_ok(call, item):
            local = [s for s in _json(call)["states"] if s["tail_mass"] < 1e-3]
            if len(local) != 1 or abs(local[0]["energy"] - e0) > 2e-3:
                item.mismatch(f"localized states {[(s['energy'], s['tail_mass']) for s in local]}"
                              f", want one within 2e-3 of {e0:.6f}")
        return item

    return argv, check


def oracle_probes(workdir: str) -> list[Probe]:
    argv, check = _soc_oracle(*DEGENERATE_WELL)
    label = "oracle probe, gamma={} nu={} (box state 6e-5 from e_bic)".format(*DEGENERATE_WELL)
    return [Probe("oracle.degenerate_misses", argv, lambda call: check(call, Item(label)))]


def oracle_round(seed: int, i: int, workdir: str) -> Round:
    """Dense box diagonalization: the spin-orbit well near its embedded
    energy (even rounds) or a seeded two-band delta near its quasi-BIC (odd)."""
    if i % 2 == 0:
        gamma, nu = (round(v, 6) for v in ORACLE_WELLS[(i // 2) % len(ORACLE_WELLS)])
        argv, soc_check = _soc_oracle(gamma, nu)
        label = f"oracle[{i}] soc gamma={gamma} nu={nu}"
    else:
        rng = np.random.default_rng([seed, 0x0A, i])
        mu, g = round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.5, 1.0), 6)
        lam = round(rng.uniform(-1.2, -0.6), 6)
        s = float(np.hypot(mu, g))
        (e0,) = delta_roots(np.array([[mu, g], [g, -mu]]), lam, -s + 1e-12, s)
        argv = ["oracle", "--two-band", "--mu", repr(mu), "--g", repr(g), "--lambda", repr(lam),
                "--n", str(ORACLE_N), "--target", repr(e0), "--k", "5"]
        label = f"oracle[{i}] two-band mu={mu} g={g} lambda={lam}"

    def check(calls: list[Call]) -> list[Item]:
        item = Item(label)
        if i % 2 == 0:
            return [soc_check(calls[0], item)]
        if _rc_ok(calls[0], item):
            local = [s for s in _json(calls[0])["states"] if s["tail_mass"] < 1e-3]
            if local:
                item.mismatch(f"two-band delta shows localized states {local}")
        return [item]

    return Round([argv], check)


def _joined(*parts: Callable[[int, int, str], Round]) -> Callable[[int, int, str], Round]:
    """A round made of one round of each part, issued in order."""
    def make(seed: int, i: int, workdir: str) -> Round:
        rounds = [part(seed, i, workdir) for part in parts]

        def check(calls: list[Call]) -> list[Item]:
            items, k = [], 0
            for rnd in rounds:
                items += rnd.check(calls[k:k + len(rnd.argvs)])
                k += len(rnd.argvs)
            return items

        return Round([a for r in rounds for a in r.argvs], check,
                     [f for r in rounds for f in r.files])
    return make


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[int, int, str], Round]
    round_s: float     # typical seconds per round on 2 cores; sizes traced runs
    # untimed probes of known defects, run once before the traced rounds
    probes: Callable[[str], list[Probe]] = lambda workdir: []


# Two workloads, split by solver path: every ARPACK user in one, the direct
# support-matrix path and the dense oracle in the other. Four workloads of
# 20 s each proved too short for steady medians on a shared 2-vCPU host,
# whose speed drifts by a quarter over half a minute; two of 45 s fit the
# same run budget.
WORKLOADS = {
    "arnoldi": Workload(_joined(certify_round, scan_round), 11.5),
    "direct": Workload(_joined(point_round, oracle_round), 5.3,
                       lambda workdir: edge_probes(workdir) + oracle_probes(workdir)),
}
