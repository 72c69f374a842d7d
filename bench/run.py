"""bicforge benchmark: one command, two closed-loop CLI workloads.

    python3 bench/run.py --workload arnoldi --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The command times a few fresh
imports of `bicforge` and `bicforge.cli` (set-up), then starts a fresh
worker process for the workload (bench/worker.py), so peak memory and
set-up are per run. It prints every metric by name and unit, the checked
failures by item and seed, a fingerprint of the machine, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, their times divided
by the host factor of bench/calibrate.py; with --trace 1 the per-layer
ones of BENCHMARK.json. See bench/NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from calibrate import REF_S, host_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 175.0
SETUP_REPEATS = 5
IMPORT = "import bicforge, bicforge.cli"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    # (metric, unit); values come from tracer.Tracer.aggregate or derive()
    PER_LAYER = [(m["name"], m["unit"]) for m in json.load(_fh)["per_layer"]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(layers: dict, rounds: list[dict], probes: list[dict]) -> dict:
    """Per-layer metric values; ratios with a zero base read 0."""
    out = dict(layers)
    for it in probes:
        out[it["metric"]] = out.get(it["metric"], 0) + (it["status"] != "ok")
    out["solver.solve_yield"] = _ratio(layers.get("solver.solutions", 0),
                                       layers.get("solver.solve_state.calls", 0))
    out["solver.eigs_per_solution"] = _ratio(layers.get("solver.eigs.calls", 0),
                                             layers.get("solver.solutions", 0))
    out["criterion.scan_parameter.parallel_eff"] = _ratio(
        layers.get("criterion.scan_parameter.busy_s", 0.0),
        layers.get("criterion.scan_parameter.capacity_s", 0.0))
    untraced = sum(r["wall_s"] for r in rounds)
    traced = sum(r["traced_wall_s"] for r in rounds)
    out["trace.overhead_frac"] = _ratio(traced, untraced) - 1.0
    # the main thread's self times partition its root spans (cli.main), so
    # this is the share of the client-timed traced wall no span covers
    out["trace.unaccounted_frac"] = 1.0 - _ratio(layers.get("main_thread.self_s", 0.0), traced)
    return {name: (float(out.get(name, 0)), unit) for name, unit in PER_LAYER}


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, but never
    below p75: under 40 rounds that rule would fall to or below the median.

    Linear interpolation keeps the value continuous as the round count
    changes from run to run.
    """
    import numpy as np
    n = len(values)
    p = max(0.75, 1.0 - 10.0 / n)
    return (float(np.quantile(values, p)),
            f"p{100.0 * p:.1f} of n={n} rounds ({n * (1.0 - p):.1f} beyond)")


def end_to_end(rec: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """Every time is divided by the run's host factor (bench/calibrate.py):
    seconds on the reference host, so runs minutes apart compare."""
    calib = [r["calib_s"] for r in rec["rounds"]]
    host = host_factor(calib)
    walls = [r["wall_s"] for r in rec["rounds"]]
    n_items = sum(r["n_items"] for r in rec["rounds"])
    n_ok = sum(r["n_ok"] for r in rec["rounds"])
    t_val, t_note = tail(walls)
    raw = {
        # completed items only: a call that fails fast is not throughput
        "items_per_s": (n_ok / sum(walls), "1/s"),
        "round_p50_s": (statistics.median(walls), "s"),
        "round_tail_s": (t_val, "s"),
        "cpu_s_per_item": (sum(r["cpu_s"] for r in rec["rounds"]) / n_items, "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    metrics = {name: (value * host if unit == "1/s" else value / host if unit == "s" else value,
                      unit) for name, (value, unit) in raw.items()}
    notes = [f"round_tail_s is the {t_note}",
             f"setup_s is the median of {len(setup)} fresh imports: "
             + " ".join(f"{s:.4f}" for s in setup),
             f"host factor {host:.4f}: median of calibrations "
             + " ".join(f"{c:.4f}" for c in calib) + f" s over {REF_S} s",
             "raw: " + ", ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items())]
    return metrics, notes


def blas_info() -> dict:
    """BLAS library and thread count of this interpreter's numpy."""
    import ctypes
    import numpy as np
    info = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{cfg.get('name')} {cfg.get('version')}"
    except Exception as exc:  # the fingerprint must not stop a run
        info["blas"] = f"unknown ({exc})"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    break
            if "blas_threads" in info:
                break
    except OSError:
        pass
    info.setdefault("blas_threads", os.environ.get("OPENBLAS_NUM_THREADS", "default"))
    return info


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_info()}


def child_env() -> dict:
    env = dict(os.environ)
    # BICFORGE_JOBS overrides an explicit --jobs today; the scan workload
    # states its worker count on the command line
    env.pop("BICFORGE_JOBS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "bicforge", "cli.py")):
        print(f"bench: no bicforge sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = child_env()

    setup = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=ROOT, check=True,
                           timeout=60)
            setup.append(time.perf_counter() - t0)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as tmp:
        result = os.path.join(tmp, "result.json")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", result]
        try:
            subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                           timeout=max(1.0, DEADLINE_S - (time.perf_counter() - t_begin)))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"bench: worker failed: {exc}", file=sys.stderr)
            return 1
        with open(result, encoding="utf-8") as fh:
            rec = json.load(fh)

    items = rec["items"]
    failed = [it for it in items if it["status"] != "ok"]
    mismatched = [it for it in items if it["status"] == "mismatch"]
    traced_differs = sum(bool(r.get("traced_stdout_differs")) for r in rec["rounds"])
    if args.trace:
        metrics = derive(rec["layers"], rec["rounds"], rec["probes"])
        notes = [f"traced {len(rec['rounds'])} fixed rounds, each also run untraced"]
        if traced_differs:
            notes.append(f"{traced_differs} traced round(s) printed other stdout than untraced")
    else:
        metrics, notes = end_to_end(rec, setup)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rec['rounds'])} rounds, {len(items)} items")
    print("  round wall s: " + " ".join(f"{r['wall_s']:.3f}" for r in rec["rounds"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  fail_frac {len(failed)}/{len(items)} = {len(failed) / max(1, len(items)):.4f} "
          f"({len(mismatched)} wrong outputs)")
    for it in failed:
        print(f"  {it['status']}: seed {args.seed} {it['label']}: {it['detail']}")
    if rec["probes"]:
        print(f"  untimed probes of known defects (bench/NOTES.md), not counted in "
              f"attempted/failed: {sum(it['status'] != 'ok' for it in rec['probes'])} "
              f"of {len(rec['probes'])} miss")
    for it in rec["probes"]:
        print(f"    {it['status']}: {it['label']}{': ' + it['detail'] if it['detail'] else ''}")
    print(f"  stdout sha256 per round: {' '.join(rec['hashes'])}")
    print(f"  fingerprint: {json.dumps(fingerprint(args.seed), sort_keys=True)}")
    print(json.dumps({
        "correct": not mismatched and not traced_differs,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
