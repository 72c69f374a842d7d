"""Out-of-program tracing: spans and counters around bicforge's layers.

`install()` replaces every public function of each layer module, and the
third-party calls a layer makes through names bound in its own namespace
(`solver.eigs`, `solver.fft`, `oracle.eigh`, ...), with timing wrappers.
Every `bicforge.*` module global that is the same object as a wrapped
function is rebound too, so `from .solver import find_energy` in
`criterion` and `cli` is traced as well. `uninstall()` puts every original
object back. Untraced runs never call `install()`.

Spans live in memory as tuples and are aggregated at the end. Each thread
keeps its own span stack; a span opened in a worker thread with no parent
in that thread (a `scan --jobs` row) is a root span of its thread and
belongs to the CLI call in flight, like every other span.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
import tracemalloc

LAYERS = ("cli", "tabular", "models", "spectral", "green", "potentials",
          "delta", "solver", "criterion", "oracle")

# third-party callables a layer binds in its own namespace
FOREIGN = {
    "solver": ("eigs", "fft", "ifft"),
    "oracle": ("eigh", "eigvalsh"),
}

# several functions reported under one span name
ALIASES = {
    "tabular.write_spectrum": "tabular.write",
    "tabular.write_wave_samples": "tabular.write",
    "criterion.multiband_criterion": "criterion.classify",
    "solver.ifft": "solver.fft",
    "oracle.eigh": "oracle.lapack",
    "oracle.eigvalsh": "oracle.lapack",
}
AGGREGATE_MODULES = {"delta": "delta.closed_form"}


def _span_name(module: str, attr: str) -> str:
    full = f"{module}.{attr}"
    return ALIASES.get(full, AGGREGATE_MODULES.get(module, full))


def targets() -> dict[tuple[str, str], object]:
    """(layer, attribute) -> original object, for everything install() wraps."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bicforge.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[(layer, attr)] = obj
        for attr in FOREIGN.get(layer, ()):
            out[(layer, attr)] = getattr(mod, attr)
    return out


class Tracer:
    """Span recorder. `call_id` names the CLI call in flight."""

    def __init__(self):
        self.spans: list[tuple] = []   # (call, thread, name, start, end, self_s, parent)
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.call_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, value), value)

    def wrap(self, fn, name: str):
        extra = _EXTRAS.get(name)

        def traced(*args, **kwargs):
            st = self._stack()
            frame = [name, 0.0]   # name, time covered by child spans
            parent = st[-1][0] if st else None
            st.append(frame)
            t0 = time.perf_counter()
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(self, fn, args, kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
                if st:
                    st[-1][1] += t1 - t0
                rec = (self.call_id, threading.get_ident(), name, t0, t1,
                       t1 - t0 - frame[1], parent)
                with self._lock:
                    self.spans.append(rec)

        traced.__wrapped__ = fn
        return traced

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (layer, attr), obj in targets().items():
            if id(obj) not in wrappers:
                wrappers[id(obj)] = (obj, self.wrap(obj, _span_name(layer, attr)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bicforge" or mod_name.startswith("bicforge.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # --- aggregation -------------------------------------------------------

    def aggregate(self, main_thread: int) -> dict[str, float]:
        """Per-name calls, outermost duration, self time; plus counters.

        `name.s` sums only spans with no ancestor of the same name, so
        recursion (Scaled -> base potential) and one delta function calling
        another are not counted twice.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        outermost: dict[str, float] = {}
        # ancestors by name: a span is outermost unless an open span of the
        # same name encloses it in the same thread
        open_by_thread: dict[int, list] = {}
        for _, tid, name, t0, t1, own, _ in sorted(
                self.spans, key=lambda r: (r[1], r[3], -r[4])):
            stack = open_by_thread.setdefault(tid, [])
            while stack and stack[-1][1] <= t0:
                stack.pop()
            if not any(n == name for n, _ in stack):
                outermost[name] = outermost.get(name, 0.0) + (t1 - t0)
            stack.append((name, t1))
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = outermost[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        out.update(self.peaks)
        # scan row work: spans directly under scan_parameter (serial rows)
        # and root spans of worker threads (rows run by the thread pool)
        out["criterion.scan_parameter.busy_s"] = sum(
            t1 - t0 for _, tid, _, t0, t1, _, parent in self.spans
            if parent == "criterion.scan_parameter"
            or (tid != main_thread and parent is None))
        out["spectral.dispersion_coeffs.calls_outside_poles"] = sum(
            1 for _, _, name, _, _, _, parent in self.spans
            if name == "spectral.dispersion_coeffs" and parent != "spectral.poles")
        out["main_thread.self_s"] = sum(
            own for _, tid, _, _, _, own, _ in self.spans if tid == main_thread)
        return out


# --- per-span extras: counters measured where the work happens --------------

def _eigs(tracer: Tracer, fn, args, kwargs):
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator
    op = args[0]

    def matvec(v):
        tracer.count("solver.eigs.matvecs")
        return op.matvec(v)

    counted = LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
    try:
        return fn(counted, *args[1:], **kwargs)
    except ArpackNoConvergence:
        tracer.count("solver.eigs.noconv")
        raise


def _fft(tracer: Tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    # computed from array sizes: input read plus output written
    tracer.count("solver.fft.bytes_computed", args[0].nbytes + out.nbytes)
    return out


def _find_energy(tracer: Tracer, fn, args, kwargs):
    reports = fn(*args, **kwargs)
    tracer.count("solver.solutions", len(reports))
    return reports


def _scan_parameter(tracer: Tracer, fn, args, kwargs):
    t0 = time.perf_counter()
    table = fn(*args, **kwargs)
    jobs = max(1, kwargs.get("jobs") or 1)
    tracer.count("criterion.scan_parameter.capacity_s",
                 (time.perf_counter() - t0) * jobs)
    tracer.count("criterion.scan_parameter.rows", len(table.rows))
    tracer.count("criterion.scan_parameter.error_rows",
                 sum(r.error is not None for r in table.rows))
    return table


def _assemble(tracer: Tracer, fn, args, kwargs):
    tracemalloc.start()
    try:
        h = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid, nb = args[1], args[0].n_bands
    dim = grid.n_points * nb
    tracer.peak("oracle.assemble.peak_alloc_mb", peak / 2**20)
    # computed from array sizes: the complex (n, N, n, N) intermediate
    # plus the returned matrix
    tracer.count("oracle.matrix_bytes_computed", dim * dim * 16 + h.matrix.nbytes)
    return h


_EXTRAS = {
    "solver.eigs": _eigs,
    "solver.fft": _fft,
    "solver.find_energy": _find_energy,
    "criterion.scan_parameter": _scan_parameter,
    "oracle.assemble": _assemble,
}
