"""Command-line frontend.

Units are hbar = 1 everywhere; masses default to 1 and all energies and
momenta are dimensionless in those units. Reports are deterministic: the
same invocation produces byte-identical output.

Exit codes: 0 ok, 1 usage/config error, 2 no bound state, 3 solver did not
converge, 4 resource limit, 5 cross-check failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .criterion import classify, fourier_line, scan_parameter
from .delta import (boundary_residual, general_b_kappa, general_b_solution,
                    lambda_critical, single_band_bound, two_band_solution)
from .errors import (BicforgeError, CheckFailure, DegeneratePoles, ModelError,
                     NoBoundState, NoNearUnitEigenvalue, NoSolutionInRange, ResourceLimit)
from .green import (apply_inverse_operator, constantA_kernel, derivative_jump, residue_green,
                    soc_kernel)
from .grids import MIN_POINTS, Grid, warns_coverage_once
from .models import (BandModel, general_b_model, load_model, sigma_y, single_band_model,
                     soc_model, two_band_model)
from .potentials import Delta, Scaled, SocBic, e_bic_analytic, spec_from_dict
from .solver import find_energy
from .spectral import poles
from .tabular import write_spectrum, write_wave_samples

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_BOUND = 2
EXIT_NO_CONVERGENCE = 3
EXIT_RESOURCE = 4
EXIT_CHECK = 5

MAX_TRIALS = 10_000   # kernel-check random trials, about 0.5 ms each
MAX_POINTS = 1 << 17  # bic-verify and scan --n-points
MAX_MESH_POINTS = 10_000  # bic-verify and scan --mesh-points, one eigensolve each
MAX_SCAN_ROWS = 10_000    # scan --range step count, one find_energy each


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-9.6e-05", "-0.4:1.2:5" and "-inf" as options, not
        # values; the flag's own type check then rejects what is not finite
        number = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)"
        self._negative_number_matcher = re.compile(rf"^-{number}([:,]-?{number})*$",
                                                   re.IGNORECASE)

    # argparse exits 2 on usage errors by default; the documented map says 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _report(args, results: dict, status: str = "ok") -> None:
    """Write the command's JSON report, echoing every flag set but --out."""
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and v is not None}
    report = {"command": args.command, "status": status, "params": params,
              "results": results}
    _write_out(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def _write_out(text: str, out_path: str | None) -> None:
    """Write text to --out, if given, and to stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _pole_table(model: BandModel, energy: float) -> list[dict]:
    ps = poles(model, energy)
    return [{"re": float(r.real), "im": float(r.imag), "label": lab.value}
            for r, lab in zip(ps.roots, ps.labels)]


def _checked_grid(half_width: float, n_points: int, n_flag: str = "--n-points") -> Grid:
    if n_points < MIN_POINTS:
        raise BicforgeError(f"{n_flag} must be >= {MIN_POINTS}, got {n_points}")
    if not half_width > 0:
        raise BicforgeError(f"--half-width must be positive, got {half_width}")
    return Grid.symmetric(half_width=half_width, n_points=n_points)


def _given(args, *dests: str) -> list[str]:
    """The flags among dests that the command line set."""
    return [f"--{'lambda' if d == 'lam' else d}" for d in dests if getattr(args, d) is not None]


def _refuse_unread(mode: str, flags: list[str], why: str = "") -> None:
    """Usage error for flags the command's mode does not read, rather than
    echoing them in params as if they had been used."""
    if flags:
        raise BicforgeError(f"{mode} does not take {', '.join(flags)}{why}")


def _refuse_above(args, flag: str, value: int, limit: int) -> None:
    """Refuse a size beyond its bound before anything is allocated for it."""
    if value > limit:
        raise ResourceLimit(f"{args.command} refuses {flag} {value} > {limit}")


def _check_sizes(args) -> None:
    """--mesh-points at least 2, and the grid and mesh within their bounds."""
    if args.mesh_points < 2:
        raise BicforgeError(f"--mesh-points must be >= 2, got {args.mesh_points}")
    _refuse_above(args, "--n-points", args.n_points, MAX_POINTS)
    _refuse_above(args, "--mesh-points", args.mesh_points, MAX_MESH_POINTS)


def _finite(text: str) -> float:
    """argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# --- delta-bound ------------------------------------------------------------

def _cmd_delta_bound(args) -> int:
    mass = args.mass
    general_b = any(v is not None for v in (args.b1, args.b2, args.b3))
    two_band = args.two_band or general_b
    if two_band and (args.mu is None or args.g is None):
        raise BicforgeError("two-band mode needs --mu and --g")
    if not general_b and args.lam is None:
        raise BicforgeError("--lambda is required")
    if not two_band:
        _refuse_unread("single-band delta-bound", _given(args, "mu", "g"),
                       ": add --two-band for the two-band model")
    if general_b:
        _refuse_unread("general-B delta-bound", _given(args, "lam"),
                       ": --b1/--b2/--b3 set the coupling")

    # each model is built before its closed forms, so a bad mass or
    # (mu, g) is a ModelError, not a failure inside them
    if not two_band:
        model = single_band_model(mass=mass, lam=args.lam)
        sol = single_band_bound(args.lam, mass)
        extra = {}
    elif general_b:
        b1 = args.b1 or 0.0
        b2 = args.b2 or 0.0
        b3 = args.b3 or 0.0
        bmat = np.array([[b1, b2], [b2, b3]])
        model = general_b_model(args.mu, args.g, bmat, mass=mass)
        res = general_b_kappa(bmat, args.mu, args.g, mass)
        sol = general_b_solution(bmat, args.mu, args.g, mass)
        extra = {"net_attractive": res.net_attractive, "amp_ratio": res.amp_ratio}
    else:
        model = two_band_model(args.mu, args.g, lam=args.lam, mass=mass)
        sol = two_band_solution(args.mu, args.g, args.lam, mass)
        extra = {"lambda_c": lambda_critical(args.mu, args.g, mass)}

    verdict = "QuasiBIC" if two_band and sol.in_gap else "ConventionalBound"
    results = {
        "e_b": sol.e_b,
        "kappa": sol.kappa,
        "p_real": sol.p_real,
        "amp_loc": sol.amp_loc,
        "amp_ext": sol.amp_ext,
        "in_gap": sol.in_gap,
        "verdict": verdict,
        "poles": _pole_table(model, sol.e_b),
        "boundary_residual_norm": float(np.linalg.norm(boundary_residual(sol, model.b, mass))),
        **extra,
    }
    if args.wave_out:
        half = max(12.0 / sol.kappa, 3.0 * 2 * np.pi / sol.p_real if sol.p_real else 0.0)
        grid = Grid.symmetric(half_width=half, n_points=2001)
        write_wave_samples(args.wave_out, grid.x, sol.sample(grid.x))
    _report(args, results)
    return EXIT_OK


# --- bic-verify -------------------------------------------------------------

def _soc_setup(args):
    if args.gamma is None or args.nu is None or args.mu is None:
        raise BicforgeError("--model soc needs --gamma, --nu and --mu")
    return soc_model(gamma=args.gamma, mu=args.mu, mass=args.mass), SocBic(args.gamma, args.nu)


def _soc_window(gamma: float, nu: float, mu: float, below: float, above: float
                ) -> tuple[float, float]:
    """(e0 - below, e0 + above) about the analytic BIC energy e0, kept 2% of
    |mu| inside the gap; NoBoundState where that leaves no window."""
    e0 = e_bic_analytic(gamma, nu, mu)
    margin = 0.02 * abs(mu)
    lo, hi = max(e0 - below, -abs(mu) + margin), min(e0 + above, abs(mu) - margin)
    if not lo < hi:
        raise NoBoundState(f"the window about the analytic BIC energy {e0:g} lies "
                           f"outside the gap (-{abs(mu):g}, {abs(mu):g})")
    return lo, hi


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo, hi = (_finite(t) for t in text.split(":"))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise BicforgeError(f"--e-window must be lo:hi, two finite numbers, got {text!r}") from exc
    if not hi > lo:
        raise BicforgeError("--e-window needs lo < hi")
    return lo, hi


def _decode_potentials(docs: list, base_dir: Path) -> list:
    try:
        return [spec_from_dict(d, base_dir) for d in docs]
    except KeyError as exc:
        raise ModelError(f"potential entry is missing key {exc}") from exc
    except (TypeError, ValueError, OSError) as exc:
        raise ModelError(f"bad potential entry: {exc}") from exc


@warns_coverage_once  # once for its find_energy and classify calls
def _cmd_bic_verify(args) -> int:
    grid = _checked_grid(args.half_width, args.n_points)
    if args.mesh_points is None:
        # the analytic window at scale 1 is narrow; a rescaled or given
        # window needs the finer mesh
        narrow = not args.model_file and args.scale == 1.0 and args.e_window is None
        args.mesh_points = 7 if narrow else 48
    _check_sizes(args)

    if args.model_file:
        unread = _given(args, "gamma", "nu", "mu")
        unread += [f"--{k}" for k in ("scale", "mass") if getattr(args, k) != 1.0]
        _refuse_unread("--model-file", unread, ": the file carries its mass and states "
                       "scaling as a 'scaled' potential")
        model, pot_docs = load_model(args.model_file)
        if not pot_docs:
            raise BicforgeError("model file carries no per-channel potentials")
        pot = _decode_potentials(pot_docs, Path(args.model_file).parent)
        if args.e_window is None:
            raise BicforgeError("--model-file mode needs --e-window lo:hi")
        lo, hi = _parse_window(args.e_window)
    else:
        model, pot = _soc_setup(args)
        if args.scale != 1.0:
            pot = Scaled(pot, args.scale)
        e0 = e_bic_analytic(args.gamma, args.nu, args.mu)
        if args.e_window is not None:
            lo, hi = _parse_window(args.e_window)
        elif args.scale == 1.0:
            lo, hi = e0 - 0.02, e0 + 0.02
        else:
            lo, hi = _soc_window(args.gamma, args.nu, args.mu, 0.3, 0.2)
    reports = find_energy(model, grid, pot, lo, hi, mesh_points=args.mesh_points)
    scored = [(rep, classify(model, rep.state, pot, rep.energy)) for rep in reports]

    rep, br = min(scored, key=lambda t: t[1].residual_rel)
    results = {
        "operator_eigenvalue": {"re": rep.operator_eigenvalue.real,
                                "im": rep.operator_eigenvalue.imag},
        "fixed_point_residual": rep.fixed_point_residual,
        "all_energies": [r.energy for r, _ in scored],
        "poles": _pole_table(model, rep.energy),
        **br.summary(),
    }
    if not args.model_file and args.scale == 1.0:
        results["e_analytic"] = e0

    if args.spectrum_out and br.real_poles.size:
        qmax = 2.0 * float(np.abs(br.real_poles).max())
        write_spectrum(args.spectrum_out, np.linspace(-qmax, qmax, 801),
                       fourier_line(rep.state, pot, model.b, -qmax, qmax, 801))
    if args.wave_out:
        write_wave_samples(args.wave_out, grid.x, rep.state.values)
    _report(args, results)
    return EXIT_OK


# --- scan -------------------------------------------------------------------

def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise BicforgeError("--range must be lo:hi:steps")
    try:
        lo, hi = _finite(parts[0]), _finite(parts[1])
        steps = int(parts[2])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise BicforgeError(f"--range must be lo:hi:steps, finite lo and hi and an "
                            f"integer step count, got {text!r}") from exc
    if steps < 0:
        raise BicforgeError("--range step count must be >= 0")
    return lo, hi, steps


def _cmd_scan(args) -> int:
    lo, hi, steps = _parse_range(args.range)
    # the scanned parameter's own flag is accepted but never read
    unset = [f"--{d}" for d in ("gamma", "nu", "mu")
             if d != args.param and getattr(args, d) is None]
    if unset:
        raise BicforgeError(f"scan --param {args.param} needs base {', '.join(unset)}")
    gamma0, nu0, mu0, mass = args.gamma, args.nu, args.mu, args.mass
    grid = _checked_grid(args.half_width, args.n_points)
    _check_sizes(args)
    _refuse_above(args, "--range step count", steps, MAX_SCAN_ROWS)

    # built up front so that a bad --mass is a usage error; a scanned gamma or
    # mu that was not given stands at 0 in it, where no row reads it
    base_model = soc_model(gamma=gamma0 or 0.0, mu=mu0 or 0.0, mass=mass)
    if args.param == "scale":
        model_fam = lambda v: base_model
        pot_fam = lambda v: Scaled(SocBic(gamma0, nu0), v)
        e_window = lambda v: _soc_window(gamma0, nu0, mu0, 0.3, 0.3)
    elif args.param == "nu":
        model_fam = lambda v: base_model
        pot_fam = lambda v: SocBic(gamma0, v)
        e_window = lambda v: _soc_window(gamma0, v, mu0, 0.1, 0.1)
    elif args.param == "gamma":
        model_fam = lambda v: soc_model(gamma=v, mu=mu0, mass=mass)
        pot_fam = lambda v: SocBic(v, nu0)
        e_window = lambda v: _soc_window(v, nu0, mu0, 0.1, 0.1)
    else:  # mu; argparse's choices admit no other value
        model_fam = lambda v: soc_model(gamma=gamma0, mu=v, mass=mass)
        pot_fam = lambda v: SocBic(gamma0, nu0)
        e_window = lambda v: _soc_window(gamma0, nu0, v, 0.1, 0.1)

    table = scan_parameter(model_fam, pot_fam, args.param, lo, hi, steps,
                           grid=grid, e_window=e_window, mesh_points=args.mesh_points)
    _write_out(table.to_csv(), args.out)
    return EXIT_OK


# --- oracle -----------------------------------------------------------------

def _cmd_oracle(args) -> int:
    mass = args.mass
    if args.single_band:
        if args.lam is None:
            raise BicforgeError("--single-band needs --lambda")
        _refuse_unread("oracle --single-band", _given(args, "gamma", "nu", "mu", "g"))
        model = single_band_model(mass=mass, lam=args.lam)
        pot = Delta(1.0)
        half_default = 40.0
    elif args.two_band:
        if args.mu is None or args.g is None or args.lam is None:
            raise BicforgeError("--two-band needs --mu, --g and --lambda")
        _refuse_unread("oracle --two-band", _given(args, "gamma", "nu"))
        model = two_band_model(args.mu, args.g, lam=args.lam, mass=mass)
        pot = Delta(1.0)
        half_default = 40.0
    else:
        _refuse_unread("the spin-orbit oracle", _given(args, "lam", "g"))
        model, pot = _soc_setup(args)
        half_default = 30.0
    half = args.half_width if args.half_width is not None else half_default
    grid = _checked_grid(half, args.n, "--n")
    if not 1 <= args.k <= oracle_mod.MAX_K:
        raise BicforgeError(f"--k must be in 1..{oracle_mod.MAX_K}, got {args.k}")
    x_cut = args.x_cut if args.x_cut is not None else half / 2.0
    if not 0 <= x_cut <= grid.x_max:
        raise BicforgeError(f"--x-cut must lie in [0, {grid.x_max}], got {x_cut}")
    h = oracle_mod.assemble(model, grid, pot)
    pairs = oracle_mod.eigen_near(h, args.target, args.k)
    rows = []
    for e, st in pairs:
        loc = oracle_mod.localization(st, x_cut)
        rows.append({"energy": e, "tail_mass": loc.tail_mass, "ipr": loc.ipr})
    results = {
        "target": args.target,
        "x_cut": x_cut,
        "hermiticity_residual": h.hermiticity_residual(),
        "states": rows,
    }
    _report(args, results)
    return EXIT_OK


# --- kernel-check -----------------------------------------------------------

def _kernel_deviation(k1, k2, seps) -> float:
    return float(np.abs(k1.evaluate(seps) - k2.evaluate(seps)).max())


def _cmd_kernel_check(args) -> int:
    if not args.energies:
        _refuse_unread("kernel-check without --energies", _given(args, "mu", "g"))
    if args.seed < 0:
        raise BicforgeError(f"--seed must be >= 0, got {args.seed}")
    if args.trials < 1:
        # no trial would leave the randomized row passing at deviation 0
        raise BicforgeError(f"--trials must be >= 1, got {args.trials}")
    _refuse_above(args, "--trials", args.trials, MAX_TRIALS)
    rng = np.random.default_rng(args.seed)
    seps = (-2.0, -0.3, 0.0, 0.3, 2.0)
    rows = []

    def add(check, dev, tol, status=None, **detail):
        if status is None:
            status = "pass" if dev < tol else "fail"
        rows.append({"check": check, "max_deviation": None if dev is None else float(dev),
                     "tolerance": None if tol is None else float(tol),
                     "status": status, **detail})

    # single band, extended: residue route vs the explicit sine form
    m1 = single_band_model(lam=-1.0)
    dev = 0.0
    for e in (0.1, 0.5, 2.0):
        k = residue_green(m1, e)
        p0 = np.sqrt(2.0 * e)
        for d in seps:
            dev = max(dev, abs(k(d)[0, 0] - np.sin(p0 * d) * np.sign(d) / p0))
    add("single_band_extended_vs_closed_form", dev, 1e-12)

    # single band, bound: G(0) = -m/kappa
    dev = 0.0
    for e in (-0.1, -0.5, -2.0):
        k = residue_green(m1, e)
        dev = max(dev, abs(k(0.0)[0, 0] + 1.0 / np.sqrt(2.0 * abs(e))))
    add("single_band_bound_value", dev, 1e-12)

    # two-band constant coupling: residue vs closed form on random gap triples
    dev = 0.0
    for _ in range(args.trials):
        mu = rng.uniform(-1.5, 1.5)
        g = rng.uniform(0.2, 2.0)
        s = float(np.hypot(mu, g))
        e = rng.uniform(-0.95 * s, 0.95 * s)
        model = two_band_model(mu, g, lam=-1.0)
        dev = max(dev, _kernel_deviation(residue_green(model, e),
                                         constantA_kernel(model, e), seps))
    add("two_band_residue_vs_constant_coupling", dev, 1e-10)

    # spin-orbit: residue vs closed form
    ms = soc_model(gamma=0.5, mu=1.0)
    dev = 0.0
    for e in (-0.6, 0.1, 0.6917497):
        dev = max(dev, _kernel_deviation(residue_green(ms, e),
                                         soc_kernel(ms, e), seps))
    add("soc_residue_vs_closed_form", dev, 1e-10)

    # models whose poles are not symmetric under p -> -p: a Rashba wire with a
    # parallel Zeeman field, and a fixed three-band model with a1 != 0
    rz = BandModel(2, 1.0, 0.3 * sigma_y(), 0.5 * sigma_y(), np.eye(2))
    three = BandModel(3, 1.0, np.array([[0.4, 0.2, 0.0], [0.2, -0.3, 0.1j],
                                        [0.0, -0.1j, 0.1]]),
                      np.array([[0.2, 0.0, 0.3], [0.0, -0.1, 0.0], [0.3, 0.0, 0.0]]),
                      np.eye(3))

    # probes of both checks below; each adds its own spin-orbit energy
    probes = [(m1, -0.5), (m1, 0.5), (two_band_model(0.3, 0.8, lam=-1.0), 0.1),
              (rz, 0.05), (three, 0.15)]

    # defining identity (E - H0) G = 0 away from the source, on both sides
    dev = 0.0
    for model, e in probes + [(ms, 0.6917497)]:
        k = residue_green(model, e)
        for d in (1.3, -1.3):
            r = apply_inverse_operator(model, k, d, step=1e-3)
            dev = max(dev, np.abs(r).max() / np.abs(k(d)).max())
    add("defining_identity_fd", dev, 1e-5)

    # derivative jump 2m I
    dev = 0.0
    for model, e in probes + [(ms, 0.2)]:
        j = derivative_jump(residue_green(model, e))
        dev = max(dev, np.abs(j - 2.0 * model.mass * np.eye(model.n_bands)).max())
    add("derivative_jump_2m", dev, 1e-8)

    # spin-orbit bare-coefficient variant (role-mapped poles): its gamma-odd
    # pieces agree with the residue derivation exactly; its bare sigma_z
    # pieces lack the residue denominators and are reported, not gated.
    # The per-pole residues are folded back into the sine, cos*sign and odd
    # exponential matrices the variant quotes.
    e = 0.6917497
    kern = soc_kernel(ms, e)
    q, kap = float(kern.real_momenta.max()), kern.decay_rate
    res = {t.pole: t.residue for t in kern.terms}
    r_q, r_mq, r_up, r_lo = res[q], res[-q], res[1j * kap], res[-1j * kap]
    denom = q * q + kap * kap
    isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
    variant_cs = 2.0 * 0.5 * isy / denom  # 2 m^2 gamma (i sigma_y) / (q^2+kap^2)
    m_sin = -(r_q - r_mq) / 2.0
    m_cs = 0.5j * (r_q + r_mq)
    m_odd = 0.5j * (r_up + r_lo)
    dev_gamma = max(np.abs(m_cs - variant_cs).max(), np.abs(m_odd + variant_cs).max())
    # sigma_z coefficient of the sine matrix vs the bare -2 m^2 mu variant
    mine_sz = float((m_sin[0, 0] - m_sin[1, 1]).real) / 2.0
    dev_sz = abs(mine_sz - (-2.0 * ms.mass**2 * 1.0))
    add("soc_gamma_terms_vs_quoted_variant", dev_gamma, 1e-10)
    add("soc_sigma_z_terms_vs_quoted_variant", dev_sz, None, status="info")

    # caller-requested energies on a two-band model (band edges degenerate)
    if args.energies:
        mu = args.mu if args.mu is not None else 0.0
        g = args.g if args.g is not None else 1.0
        model = two_band_model(mu, g, lam=-1.0)
        try:
            requested = [_finite(t) for t in args.energies.split(",")]
        except argparse.ArgumentTypeError as exc:
            raise BicforgeError(f"--energies must be comma-separated finite numbers, "
                                f"got {args.energies!r}") from exc
        for e in requested:
            try:
                dev = _kernel_deviation(residue_green(model, e),
                                        constantA_kernel(model, e), seps)
                add(f"two_band_requested_energy_{e:g}", dev, 1e-10)
            except BicforgeError as exc:
                status = "DegeneratePoles" if isinstance(exc, DegeneratePoles) else "error"
                add(f"two_band_requested_energy_{e:g}", None, 1e-10, status, detail=str(exc))

    bad = [r for r in rows if r["status"] not in ("pass", "info")]
    _report(args, {"rows": rows}, "ok" if not bad else "check-failure")
    if bad:
        raise CheckFailure(f"{len(bad)} kernel check(s) failed")
    return EXIT_OK


# --- argument plumbing ------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built on the first call and shared by every later
    main call in the process: parsing leaves it unchanged."""
    parser = _Parser(prog="bicforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several commands, listed first in their --help
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    soc = argparse.ArgumentParser(add_help=False, parents=[out])
    soc.add_argument("--gamma", type=_finite)
    soc.add_argument("--nu", type=_finite)
    soc.add_argument("--mu", type=_finite)
    soc.add_argument("--mass", type=_finite, default=1.0)

    p = sub.add_parser("delta-bound", parents=[out], help="closed-form delta-potential solutions")
    p.add_argument("--lambda", dest="lam", type=_finite, help="delta strength (< 0 binds)")
    p.add_argument("--mass", type=_finite, default=1.0)
    p.add_argument("--two-band", action="store_true")
    p.add_argument("--mu", type=_finite)
    p.add_argument("--g", type=_finite)
    p.add_argument("--b1", type=_finite, help="general coupling matrix entry (1,1)")
    p.add_argument("--b2", type=_finite, help="general coupling matrix entry (1,2)")
    p.add_argument("--b3", type=_finite, help="general coupling matrix entry (2,2)")
    p.add_argument("--wave-out")
    p.set_defaults(func=_cmd_delta_bound)

    p = sub.add_parser("bic-verify", parents=[soc], help="solve and certify a BIC candidate")
    p.add_argument("--model", choices=["soc"], default="soc")
    p.add_argument("--model-file")
    p.add_argument("--scale", type=_finite, default=1.0)
    p.add_argument("--half-width", type=_finite, default=30.0)
    p.add_argument("--n-points", type=int, default=4096)
    p.add_argument("--mesh-points", type=int,
                   help="energy mesh size (default: 7 at scale 1 without --e-window, else 48)")
    p.add_argument("--e-window", help="lo:hi energy window override")
    p.add_argument("--spectrum-out")
    p.add_argument("--wave-out")
    p.set_defaults(func=_cmd_bic_verify)

    p = sub.add_parser("scan", parents=[soc], help="parameter sweep with per-row verdicts (CSV)")
    p.add_argument("--param", required=True, choices=["scale", "nu", "gamma", "mu"])
    p.add_argument("--range", required=True, help="lo:hi:steps")
    p.add_argument("--half-width", type=_finite, default=30.0)
    p.add_argument("--n-points", type=int, default=2048)
    p.add_argument("--mesh-points", type=int, default=24)
    p.add_argument("--jobs", type=int,
                   help="accepted for compatibility and ignored: rows run serially")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("oracle", parents=[soc], help="finite-difference box diagonalization")
    p.add_argument("--model", choices=["soc"], default="soc")
    band = p.add_mutually_exclusive_group()
    band.add_argument("--single-band", action="store_true")
    band.add_argument("--two-band", action="store_true")
    p.add_argument("--lambda", dest="lam", type=_finite)
    p.add_argument("--g", type=_finite)
    p.add_argument("--target", type=_finite, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--half-width", type=_finite)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--x-cut", type=_finite)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("kernel-check", parents=[out], help="kernel cross-check table")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--mu", type=_finite)
    p.add_argument("--g", type=_finite)
    p.add_argument("--energies", help="comma-separated energies for the two-band form")
    p.set_defaults(func=_cmd_kernel_check)

    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one line, without the source location Python's
    format names, which is bicforge's own install path."""
    print(f"bicforge: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return args.func(args)
        except NoBoundState as exc:
            print(f"bicforge: no bound state: {exc}", file=sys.stderr)
            return EXIT_NO_BOUND
        except (NoSolutionInRange, NoNearUnitEigenvalue) as exc:
            print(f"bicforge: solver did not converge: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except ResourceLimit as exc:
            print(f"bicforge: resource limit: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        except CheckFailure as exc:
            print(f"bicforge: check failure: {exc}", file=sys.stderr)
            return EXIT_CHECK
        except BicforgeError as exc:
            print(f"bicforge: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as exc:
            # input files are read under ModelError, so this is an output path
            print(f"bicforge: cannot write {exc.filename or 'stdout'}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
