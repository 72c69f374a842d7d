"""Plot-ready numeric text files: TSV with '# column' header comments."""
from __future__ import annotations

import numpy as np


def _write_rows(path, header: str, table: np.ndarray) -> None:
    """A '# header' line, then each row of the real table as tab-separated
    %.12e values; rows become Python floats 256 at a time, so a long table
    needs no second copy as a list."""
    row = "\t".join(["%.12e"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for start in range(0, len(table), 256):
            for values in table[start:start + 256].tolist():
                fh.write(row % tuple(values))


def _write_complex(path, axis: str, name: str, xs: np.ndarray, values: np.ndarray) -> None:
    """Columns (axis, Re name_i, Im name_i) per channel i."""
    cols = " ".join(f"re_{name}{i+1} im_{name}{i+1}" for i in range(values.shape[1]))
    table = np.empty((len(xs), 1 + 2 * values.shape[1]))
    table[:, 0] = xs
    table[:, 1::2] = values.real
    table[:, 2::2] = values.imag
    _write_rows(path, f"{axis} {cols}", table)


def write_wave_samples(path, x: np.ndarray, values: np.ndarray) -> None:
    """Columns (x, Re psi_i, Im psi_i) for values of shape (len(x), N);
    collapses to two columns for a purely real single channel."""
    values = np.asarray(values, dtype=complex)
    if values.shape[1] != 1 or np.abs(values.imag).max() != 0.0:
        _write_complex(path, "x", "psi", x, values)
        return
    _write_rows(path, "x psi", np.column_stack([x, values[:, 0].real]))


def write_spectrum(path, qs: np.ndarray, components: np.ndarray) -> None:
    """Fourier-component samples: columns (q, Re F_i, Im F_i) per channel."""
    _write_complex(path, "q", "F", qs, np.asarray(components, dtype=complex))
