"""Plot-ready numeric text files: TSV with '# column' header comments."""
from __future__ import annotations

import numpy as np


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_complex(path, axis: str, name: str, xs: np.ndarray, values: np.ndarray) -> None:
    """Columns (axis, Re name_i, Im name_i) per channel i."""
    cols = " ".join(f"re_{name}{i+1} im_{name}{i+1}" for i in range(values.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {axis} {cols}\n")
        for xi, row in zip(xs, values):
            parts = [_fmt(xi)]
            for z in row:
                parts += [_fmt(z.real), _fmt(z.imag)]
            fh.write("\t".join(parts) + "\n")


def write_wave_samples(path, x: np.ndarray, values: np.ndarray) -> None:
    """Columns (x, Re psi_i, Im psi_i); collapses to two columns for a
    purely real single channel."""
    values = np.atleast_2d(np.asarray(values, dtype=complex))
    if values.shape[0] != len(x):
        values = values.T
    if values.shape[1] != 1 or np.abs(values.imag).max() != 0.0:
        _write_complex(path, "x", "psi", x, values)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x psi\n")
        for xi, row in zip(x, values):
            fh.write(f"{_fmt(xi)}\t{_fmt(row[0].real)}\n")


def write_spectrum(path, qs: np.ndarray, components: np.ndarray) -> None:
    """Fourier-component samples: columns (q, Re F_i, Im F_i) per channel."""
    _write_complex(path, "q", "F", qs, np.asarray(components, dtype=complex))
