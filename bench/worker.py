"""One workload run in a fresh process: the closed-loop client.

The client issues each round's `bicforge.cli.main(argv)` calls in process,
with stdout and stderr captured, and starts the next round only after the
previous one returned. Untraced runs issue rounds for about `--seconds` and
never touch bicforge's code. Traced runs replay a fixed, seed-determined
number of rounds, each once untraced and once traced, so that per-layer
counts repeat exactly and the tracing overhead is measured on the same
calls. Results go to the `--result` file as JSON; run.py reports them.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from calibrate import calibration_s  # noqa: E402
from workloads import WORKLOADS, Call, Round  # noqa: E402


def run_call(main, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code
        except Exception:                  # a traceback is a failed item
            rc = "exception"
            err.write(traceback.format_exc(limit=3))
    return Call(rc, out.getvalue(), err.getvalue())


def run_round(main, rnd: Round, tracer=None) -> tuple[list[Call], float, float]:
    """Calls of one round; returns them with wall and CPU seconds."""
    calls = []
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in rnd.argvs:
        if tracer is not None:
            tracer.call_id += 1
        calls.append(run_call(main, argv))
    return calls, time.perf_counter() - t0, time.process_time() - c0


def digest(calls: list[Call]) -> str:
    h = hashlib.sha256()
    for c in calls:
        h.update(hashlib.sha256(c.stdout.encode()).digest())
    return h.hexdigest()[:16]


def traced_rounds(workload: str, seconds: float) -> int:
    """Rounds of a traced run: each runs twice, so about `seconds` in total
    at the workload's typical round cost. Fixed per (workload, seconds)."""
    return max(1, int(seconds / (2.0 * WORKLOADS[workload].round_s)))


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        rounds: int | None = None) -> dict:
    """Run one workload; `rounds` fixes the untraced round count (tests)."""
    from bicforge import cli
    make = WORKLOADS[workload].make_round
    record = {"rounds": [], "items": [], "hashes": []}
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        rounds = traced_rounds(workload, seconds) if rounds is None else rounds
    # fixed, untimed checks of known defects, made before the traced rounds;
    # their misses are per-layer metrics, so untimed runs skip them
    probes = WORKLOADS[workload].probes(workdir) if trace else []
    record["probes"] = [{"metric": p.metric, **vars(p.check(run_call(cli.main, p.argv)))}
                        for p in probes]
    i = 0
    t_start = time.perf_counter()
    # an untraced run starts a round only if it should end no later than half
    # a typical round past `seconds`: the run then lasts `seconds` give or
    # take half a round, however long rounds are
    typical = 0.0
    while (i < rounds) if rounds is not None else \
            (time.perf_counter() - t_start + 0.5 * typical < seconds):
        rnd = make(seed, i, workdir)
        calls, wall, cpu = run_round(cli.main, rnd)
        entry = {"wall_s": wall, "cpu_s": cpu}
        if tracer is not None:
            tracer.install()
            try:
                traced_calls, twall, _ = run_round(cli.main, rnd, tracer)
            finally:
                tracer.uninstall()
            entry["traced_wall_s"] = twall
            if digest(traced_calls) != digest(calls):
                entry["traced_stdout_differs"] = True
        else:
            # host speed, measured between rounds (bench/calibrate.py)
            entry["calib_s"] = calibration_s()
        items = rnd.check(calls)
        entry["n_items"] = len(items)
        entry["n_ok"] = sum(it.status == "ok" for it in items)
        record["rounds"].append(entry)
        typical = statistics.median(r["wall_s"] for r in record["rounds"])
        record["items"] += [vars(it) for it in items]
        record["hashes"].append(digest(calls))
        for path in rnd.files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        i += 1
    ru = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.aggregate(threading.main_thread().ident)
        record["spans"] = tracer.spans
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    # model and output paths appear in report params, so they must not
    # depend on the checkout's location or the process: relative to the
    # root (the working directory), named by workload and seed
    os.chdir(args.root)
    workdir = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = record.pop("spans", None)
    if spans is not None:
        path = os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for call, tid, name, t0, t1, own, parent in spans:
                fh.write(json.dumps({"call": call, "thread": tid, "name": name,
                                     "start": t0, "end": t1, "self_s": own,
                                     "parent": parent}) + "\n")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
