"""Checks of the benchmark itself: tracing coverage, pristine untraced runs,
repeatable counts and outputs, and the independent point reference.

    PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import (EDGE_STEPS, POINT_MESH, PROBE, WORKLOADS, Call, Workload,  # noqa: E402
                       _window, delta_roots, delta_strength, e_bic, edge_steps, point_round,
                       scan_round, soc_params)


def _globals() -> dict:
    import bicforge.cli  # noqa: F401  (every layer module is loaded)
    return {(name, attr): obj
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bicforge" or name.startswith("bicforge."))
            for attr, obj in vars(mod).items()}


@pytest.fixture
def point_only(monkeypatch):
    """The point part of `direct` alone: the same code paths, no oracle cost."""
    monkeypatch.setitem(WORKLOADS, "point", Workload(point_round, 1.1))
    return "point"


def _assert_pristine(before: dict) -> None:
    after = _globals()
    changed = [key for key, obj in before.items() if after.get(key) is not obj]
    assert not changed


def test_traced_mode_wraps_every_binding_site_and_restores_them():
    before = _globals()
    originals = {id(obj): obj for obj in tracer.targets().values()}
    sites = [key for key, obj in before.items() if originals.get(id(obj)) is obj]
    # the from-imports that rebind layer functions in other modules
    for key in [("bicforge.criterion", "find_energy"), ("bicforge.cli", "find_energy"),
                ("bicforge.solver", "residue_green"), ("bicforge.green", "poles"),
                ("bicforge.solver", "sample_potential"), ("bicforge.cli", "classify"),
                ("bicforge.solver", "eigs"), ("bicforge.oracle", "eigvalsh")]:
        assert key in sites
    tr = tracer.Tracer()
    tr.install()
    try:
        after = _globals()
        unwrapped = [key for key in sites
                     if getattr(after[key], "__wrapped__", None) is not before[key]]
        assert not unwrapped
    finally:
        tr.uninstall()
    _assert_pristine(before)


def test_untraced_run_never_installs_the_tracer(tmp_path, monkeypatch, point_only):
    before = _globals()

    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    rec = worker.run(point_only, 5, 0.0, False, str(tmp_path), rounds=1)
    assert len(rec["rounds"]) == 1 and "layers" not in rec
    _assert_pristine(before)


def test_traced_counts_and_stdout_repeat_exactly(tmp_path, point_only):
    before = _globals()
    runs = [worker.run(point_only, 3, 0.0, True, str(tmp_path), rounds=2) for _ in range(2)]
    _assert_pristine(before)
    counts = [{k: v for k, v in r["layers"].items()
               if k.endswith(".calls") or k in ("solver.solutions", "solver.fft.bytes_computed")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["green.residue_green.calls"] > 0
    assert counts[0].get("solver.eigs.calls", 0) == 0   # delta support: direct path
    assert runs[0]["hashes"] == runs[1]["hashes"]
    for r in runs:
        assert not any(rd.get("traced_stdout_differs") for rd in r["rounds"])
        traced = sum(rd["traced_wall_s"] for rd in r["rounds"])
        # span self times partition the traced calls
        assert r["layers"]["main_thread.self_s"] == pytest.approx(traced, rel=0.02)


def test_worker_thread_spans_attach_to_the_call_in_flight():
    tr = tracer.Tracer()
    inner = tr.wrap(lambda x: x * 2, "solver.find_energy_stub")

    def scan(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, xs))

    outer = tr.wrap(scan, "stub.scan")
    tr.call_id = 7
    assert outer([1, 2, 3]) == [2, 4, 6]
    main = threading.main_thread().ident
    rows = [s for s in tr.spans if s[2] == "solver.find_energy_stub"]
    assert len(rows) == 3
    assert all(s[0] == 7 for s in tr.spans)
    assert all(s[6] is None and s[1] != main for s in rows)
    agg = tr.aggregate(main)
    assert agg["stub.scan.calls"] == 1
    assert agg["criterion.scan_parameter.busy_s"] == pytest.approx(
        sum(s[4] - s[3] for s in rows))


@pytest.mark.parametrize("seed", range(5))
def test_delta_reference_matches_two_band_closed_form(seed):
    rng = np.random.default_rng(seed)
    mu, g, lam = rng.uniform(-1, 1), rng.uniform(0.3, 1), rng.uniform(-1.5, -0.5)
    s = np.hypot(mu, g)
    closed = s - lam**2 * (1 + mu / s) ** 2 / 8
    roots = delta_roots(np.array([[mu, g], [g, -mu]]), lam, -s + 1e-12, s)
    if closed > -s:
        assert roots == [pytest.approx(closed, abs=1e-12)]
    else:
        assert roots == []


def test_delta_strength_places_each_probe_root():
    for a0, edge, side, d in PROBE:
        lo, hi = _window(a0)
        e = edge + side * d * (hi - lo) / (POINT_MESH - 1)
        assert e in [pytest.approx(r, abs=1e-12)
                     for r in delta_roots(a0, delta_strength(a0, e), lo, hi)]


@pytest.mark.parametrize("seed", range(3))
def test_point_models_clear_the_band_edges(tmp_path, seed):
    rnd = point_round(seed, 0, str(tmp_path))
    for argv in rnd.argvs[1:-1]:
        with open(argv[argv.index("--model-file") + 1], encoding="utf-8") as fh:
            doc = json.load(fh)
        a0 = np.array([[re for re, _ in row] for row in doc["a0"]])
        lo, hi = (float(x) for x in argv[-1].split("=", 1)[1].split(":"))
        roots = delta_roots(a0, doc["potentials"][0]["strength"], lo, hi)
        assert edge_steps(a0, roots, lo, hi) >= EDGE_STEPS


def test_time_metrics_are_divided_by_the_host_factor():
    import run
    from calibrate import REF_S
    rec = {"peak_rss_mb": 100.0,
           "rounds": [{"wall_s": w, "cpu_s": 2.0 * w, "n_items": 2, "n_ok": 2,
                       "calib_s": 2.0 * REF_S} for w in (4.0, 6.0)]}
    metrics, _ = run.end_to_end(rec, [0.8])      # the host ran at half speed
    assert metrics["round_p50_s"] == (pytest.approx(2.5), "s")
    assert metrics["items_per_s"] == (pytest.approx(4 / 10.0 * 2.0), "1/s")
    assert metrics["cpu_s_per_item"] == (pytest.approx(20.0 / 4 / 2.0), "s")
    assert metrics["setup_s"] == (pytest.approx(0.4), "s")
    assert metrics["peak_rss_mb"] == (100.0, "MB")


def test_scan_error_rows_and_crashes_are_wrong_outputs(tmp_path):
    rnd = scan_round(1, 0, str(tmp_path))
    e0 = e_bic(*soc_params(1, 0))
    quoted = ('param,energy,residual_rel,tail_rel,verdict\n'
              '0.9,,,,"Error(no fixed point in (a, b))"\n'
              f'1,{e0:.12g},1.0e-09,1.0e-09,ExactBIC\n'
              '1.1,-0.1,1.0e-03,1.0e-03,QuasiBIC\n')
    items = rnd.check([Call(0, quoted, "")])
    assert [it.status for it in items] == ["mismatch", "ok", "ok"]
    assert items[0].detail.startswith("Error(no fixed point in (a, b))")
    crashed = rnd.check([Call("exception", "", "Traceback ...")])
    assert {it.status for it in crashed} == {"mismatch"}
