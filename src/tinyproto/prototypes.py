"""The sparsify / compress / reconstruct operators on prototype blocks.

A prototype is a class's mean feature vector, a float row of length d.  Each
class owns a fixed binary mask, its row of a :class:`~tinyproto.masking.MaskSet`:
zeroing a prototype outside it gives the sparse form (length d), and keeping
only the masked entries, in ascending index order, gives the compressed form
(length s) that travels between client and server.  These operators are the
only code that knows that layout.  Each takes the mask set, the class ids of
an ``(n, d)`` block's rows, and the block; the compressed form is ``(n, s)``
in row-major masked order.  Every mask of a set has popcount s, so the
operators check only that the ids are integers in ``[0, K)`` and the block's
shape; a mismatch raises ``ValueError``.  One vector is a one-row block.
"""

from __future__ import annotations

import numpy as np

from .masking import MaskSet

__all__ = [
    "sparsify",
    "compress",
    "reconstruct",
    "dead_unit_fraction",
]


def _keep(mask_set: MaskSet, ids, block, width: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``block`` as float64 and the boolean ``(n, d)`` selection of classes ``ids``."""
    ids, block = np.asarray(ids), np.asarray(block, dtype=np.float64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu" or block.shape != (len(ids), width):
        raise ValueError(
            f"expected n integer class ids (1-D) and an (n, {width}) {what} block, "
            f"got ids {ids.dtype} {ids.shape} and {what} {block.shape}"
        )
    k = mask_set.n_classes
    if len(ids) and not 0 <= ids.min() <= ids.max() < k:
        bad = ids[(ids < 0) | (ids >= k)]
        raise ValueError(f"class id {bad[0]} outside [0, K) for K={k}")
    return block, mask_set.bits[ids].view(bool)


def sparsify(mask_set: MaskSet, ids, block) -> np.ndarray:
    """Hadamard product with each row's mask: entries outside it become zero."""
    block, keep = _keep(mask_set, ids, block, mask_set.d, "values")
    return block * keep


def compress(mask_set: MaskSet, ids, block) -> np.ndarray:
    """Keep only each row's masked entries: ``(n, d)`` becomes ``(n, s)``."""
    block, keep = _keep(mask_set, ids, block, mask_set.d, "values")
    return np.extract(keep, block).reshape(len(block), mask_set.s)


def reconstruct(mask_set: MaskSet, ids, comp) -> np.ndarray:
    """Scatter each compressed row back to its mask positions, zeros elsewhere.

    Inverse of :func:`compress` up to the off-mask entries:
    reconstruct(m, ids, compress(m, ids, v)) == sparsify(m, ids, v).
    """
    comp, keep = _keep(mask_set, ids, comp, mask_set.s, "payload")
    full = np.zeros(keep.shape)
    full[keep] = comp.ravel()
    return full


def dead_unit_fraction(values):
    """Fraction of prototype entries that are exactly zero, per row of a block.

    With the ReLU feature layer, an entry is exactly zero when the unit never
    fired on any sample of the class, so this counts truly dead units.  A
    row gives a float, an ``(n, d)`` block an ``(n,)`` array.
    """
    fractions = np.mean(np.asarray(values, dtype=np.float64) == 0, axis=-1)
    return fractions if fractions.ndim else float(fractions)
