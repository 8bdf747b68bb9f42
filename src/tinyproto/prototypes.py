"""The prototype value type and the sparsify / compress / reconstruct operators.

A prototype is the per-class mean of feature-layer activations.  Each class
owns a fixed binary mask; zeroing a prototype outside its mask gives the
structured sparse form (length d), and keeping only the masked entries (in
ascending index order, which fixes the wire layout) gives the compressed
form (length s) that actually travels between client and server.  All three
forms are the same value type, :class:`Prototype`: a class id plus a vector.

Values are immutable: arrays are copied on construction and marked
read-only, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Prototype",
    "Mask",
    "sparsify",
    "compress",
    "reconstruct",
    "dead_unit_fraction",
]


def _frozen_float_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Prototype:
    """A class id and its vector: dense (length d), sparse or compressed (length s)."""

    class_id: int
    values: np.ndarray

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError("class_id must be >= 0")
        object.__setattr__(self, "values", _frozen_float_vector(self.values))

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Mask:
    """Per-class binary selection pattern over the d prototype dimensions."""

    class_id: int
    bits: np.ndarray

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError("class_id must be >= 0")
        bits = np.array(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError(f"expected a 1-D bit vector, got shape {bits.shape}")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("mask bits must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def dim(self) -> int:
        return self.bits.shape[0]

    @property
    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))


def _check_pair(proto: Prototype, mask: Mask) -> None:
    if proto.class_id != mask.class_id:
        raise ValueError(
            f"class mismatch: prototype class {proto.class_id}, mask class {mask.class_id}"
        )
    if proto.dim != mask.dim:
        raise ValueError(f"dimension mismatch: prototype {proto.dim}, mask {mask.dim}")


def sparsify(proto: Prototype, mask: Mask) -> Prototype:
    """Hadamard product with the mask: entries outside the mask become zero."""
    _check_pair(proto, mask)
    return Prototype(proto.class_id, proto.values * mask.bits)


def compress(proto: Prototype, mask: Mask) -> Prototype:
    """Keep only the masked entries, in ascending index order."""
    _check_pair(proto, mask)
    return Prototype(proto.class_id, proto.values[mask.bits == 1])


def reconstruct(comp: Prototype, mask: Mask) -> Prototype:
    """Scatter compressed values back to the mask positions, zeros elsewhere.

    Inverse of :func:`compress` up to the off-mask entries:
    reconstruct(compress(p, m), m) == sparsify(p, m).
    """
    if comp.class_id != mask.class_id:
        raise ValueError(
            f"class mismatch: payload class {comp.class_id}, mask class {mask.class_id}"
        )
    if comp.dim != mask.popcount:
        raise ValueError(
            f"length mismatch for class {comp.class_id}: payload has {comp.dim} values, "
            f"mask selects {mask.popcount}"
        )
    full = np.zeros(mask.dim)
    full[mask.bits == 1] = comp.values
    return Prototype(comp.class_id, full)


def dead_unit_fraction(proto: Prototype, tol: float = 0.0) -> float:
    """Fraction of prototype entries with magnitude <= tol.

    With the ReLU feature layer, an entry is exactly zero when the unit never
    fired on any sample of the class, so tol=0 counts truly dead units;
    raise tol to absorb float drift.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return float(np.mean(np.abs(proto.values) <= tol))
