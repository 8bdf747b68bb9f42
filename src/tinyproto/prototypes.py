"""The sparsify / compress / reconstruct operators on prototype arrays.

A prototype is a class's mean feature vector, a float row of length d.  Each
class owns a fixed binary mask: zeroing a prototype outside it gives the
sparse form (length d), and keeping only the masked entries, in ascending
index order, gives the compressed form (length s) that travels between
client and server.  These operators are the only code that knows that
layout.  Each takes one row ``(d,)`` with its mask bits ``(d,)``, or an
``(n, d)`` block with one mask row per row, compressed to ``(n, s)`` in
row-major masked order.  A shape or length mismatch raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sparsify",
    "compress",
    "reconstruct",
    "dead_unit_fraction",
]


def _checked(values, bits, what: str, dense: bool) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as float64, one row or a block with one ``bits`` row per row."""
    values, bits = np.asarray(values, dtype=np.float64), np.asarray(bits)
    if values.ndim not in (1, 2) or bits.ndim != values.ndim:
        raise ValueError(
            f"expected a row (d,) or a block (n, d) with one mask row each, "
            f"got {what} {values.shape} and mask bits {bits.shape}"
        )
    if values.shape[:-1] != bits.shape[:-1]:
        raise ValueError(f"class mismatch: {what} {values.shape}, mask bits {bits.shape}")
    if dense and values.shape != bits.shape:
        raise ValueError(f"dimension mismatch: {what} {values.shape}, mask bits {bits.shape}")
    return values, bits


def _selection(bits: np.ndarray, width: int, what: str) -> np.ndarray:
    """``bits == 1``, once every row is checked to select ``width`` entries."""
    keep = bits == 1
    counts = np.count_nonzero(keep.reshape(-1, bits.shape[-1]), axis=1)
    bad = np.flatnonzero(counts != width)
    if len(bad):
        raise ValueError(
            f"length mismatch in row {bad[0]}: mask selects {counts[bad[0]]} entries, "
            f"{what} {width}"
        )
    return keep


def sparsify(values, bits) -> np.ndarray:
    """Hadamard product with the mask: entries outside the mask become zero."""
    values, bits = _checked(values, bits, "values", dense=True)
    return values * bits


def compress(values, bits) -> np.ndarray:
    """Keep only the masked entries: ``(s,)`` for a row, ``(n, s)`` for a block.

    Every row of a block must select as many entries as row 0; an empty
    block gives ``(0, 0)``.
    """
    values, bits = _checked(values, bits, "values", dense=True)
    s = np.count_nonzero(np.atleast_2d(bits)[:1] == 1)
    keep = _selection(bits, s, "row 0 selects")
    return values[keep].reshape(*values.shape[:-1], s)


def reconstruct(comp, bits) -> np.ndarray:
    """Scatter compressed values back to the mask positions, zeros elsewhere.

    Inverse of :func:`compress` up to the off-mask entries:
    reconstruct(compress(v, b), b) == sparsify(v, b).
    """
    comp, bits = _checked(comp, bits, "payload", dense=False)
    keep = _selection(bits, comp.shape[-1], "payload has")
    full = np.zeros(bits.shape)
    full[keep] = comp.ravel()
    return full


def dead_unit_fraction(values, tol: float = 0.0):
    """Fraction of prototype entries with magnitude <= tol, per row of a block.

    With the ReLU feature layer, an entry is exactly zero when the unit never
    fired on any sample of the class, so tol=0 counts truly dead units;
    raise tol to absorb float drift.  A row gives a float, an ``(n, d)``
    block an ``(n,)`` array.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    fractions = np.mean(np.abs(np.asarray(values, dtype=np.float64)) <= tol, axis=-1)
    return fractions if fractions.ndim else float(fractions)
