"""Per-class mask generation shared by server and clients.

Masks determine which prototype dimensions each class communicates.  Two
regimes:

* K*s <= d: every class gets its own contiguous block of s dimensions, so
  masks are pairwise disjoint and every pairwise Hamming distance is 2s, the
  maximum possible at fixed popcount.
* K*s > d: overlap is unavoidable.  Masks start as seeded uniform s-subsets
  and are then improved by greedy hill climbing on the minimum pairwise
  Hamming distance: repeatedly take the currently tightest pair, move one
  shared 1-bit of one of its masks to a position unused by both, and accept
  the move only if no distance drops below the current minimum.  The search
  stops after 10*K*d candidate moves or when no tightest pair can be
  improved.  Ties are always broken toward the lowest index.

  Each move only costs work for the masks that can block it.  Every mask has
  popcount s, so every distance is even and none is below the minimum
  ("floor").  Moving bit p of mask a to q changes dist[a, c] by -2, 0 or +2,
  and by -2 only when c lacks p and has q; so only masks at exactly floor
  from a that lack p can block the move, and q is acceptable when none of
  them has it.  Tightest pairs (a < b) are visited lazily in lexicographic
  order: rows whose minimum is floor, then the columns b > a at floor within
  a row.  A rejected attempt never changes a distance, so this is the order
  of a snapshot taken before the first attempt.

Generation is deterministic in (K, d, s, seed); the set produced before the
local search is recorded so callers can verify the search never hurt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mask",
    "MaskSet",
    "generate_masks",
    "min_pairwise_hamming",
    "format_mask_rows",
]


@dataclass(frozen=True)
class Mask:
    """Class ``class_id``'s row of a :class:`MaskSet`, as a read-only view."""

    class_id: int
    bits: np.ndarray

    @property
    def dim(self) -> int:
        return self.bits.shape[0]

    @property
    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class MaskSet:
    """One mask per class, each with popcount exactly s: row c of ``bits``.

    ``bits`` is checked once and kept as a read-only ``(K, d)`` uint8 copy.
    ``presearch_min_hamming`` is the minimum pairwise Hamming distance of the
    seeded starting point, before any local search (None when there are
    fewer than two classes, or for a set rebuilt from the wire).
    """

    bits: np.ndarray
    s: int
    presearch_min_hamming: int | None = None

    def __post_init__(self):
        raw = np.asarray(self.bits)
        if raw.ndim != 2 or raw.shape[0] < 1:
            raise ValueError(f"expected a (K, d) bit matrix with K >= 1, got shape {raw.shape}")
        # checked before the uint8 cast, which would truncate 0.5 to 0
        for bad, what in (
            (((raw != 0) & (raw != 1)).any(axis=1), "has values other than 0 and 1"),
            (np.count_nonzero(raw, axis=1) != self.s, f"does not have popcount {self.s}"),
        ):
            if bad.any():
                raise ValueError(f"mask for class {int(np.flatnonzero(bad)[0])} {what}")
        bits = raw.astype(np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def n_classes(self) -> int:
        return self.bits.shape[0]

    @property
    def d(self) -> int:
        return self.bits.shape[1]

    @property
    def masks(self) -> tuple[Mask, ...]:
        """One :class:`Mask` view per class, in class order."""
        return tuple(Mask(cls, row) for cls, row in enumerate(self.bits))


def _pairwise_hamming(bits: np.ndarray) -> np.ndarray:
    """(K, K) matrix of pairwise Hamming distances for 0/1 rows."""
    b = bits.astype(np.int64)
    overlap = b @ b.T
    pop = b.sum(axis=1)
    return pop[:, None] + pop[None, :] - 2 * overlap


def min_pairwise_hamming(mask_set: MaskSet) -> int:
    """Exact minimum Hamming distance over all class pairs."""
    k = mask_set.n_classes
    if k < 2:
        raise ValueError("need at least two masks to compare")
    dist = _pairwise_hamming(mask_set.bits)
    off_diag = dist[np.triu_indices(k, k=1)]
    return int(off_diag.min())


def _improve_mask(
    bits: np.ndarray,
    dist: np.ndarray,
    a: int,
    b: int,
    floor: int,
    budget: int,
) -> tuple[bool, int]:
    """Try to widen pair (a, b) by moving one 1-bit of mask a.

    Candidate moves take a shared 1-position p to a position q where both
    masks are 0 (each such move widens the pair by 2); a move is accepted only
    if every distance from the modified mask stays >= floor.  Candidates are
    scanned in ascending (p, q) order, each p charged len(targets) against the
    budget, and the first acceptable one wins.  Returns (accepted, remaining
    budget).

    The acceptance test only looks at masks that can block a move.  All masks
    have popcount s, so every distance is even and >= floor.  Moving bit p to
    q changes dist[a, c] by 2 * (bits[c, p] - bits[c, q]), so the distance
    drops (by 2) only when c lacks p and has q, and then falls below floor
    only when dist[a, c] == floor.  Hence q is acceptable exactly when no mask
    c != a at distance floor that lacks p has bit q.
    """
    shared = np.flatnonzero(bits[a] & bits[b])
    targets = np.flatnonzero(~(bits[a] | bits[b]))
    if len(targets) == 0:
        return False, budget
    tight = bits[dist[a] == floor]  # the diagonal sentinel keeps a out
    tight_at_shared = tight[:, shared]
    tight_at_targets = tight[:, targets]
    for i, p in enumerate(shared):
        if budget <= 0:
            return False, budget
        budget -= len(targets)
        blocked = tight_at_targets[~tight_at_shared[:, i]].any(axis=0)
        free = np.flatnonzero(~blocked)
        if len(free) == 0:
            continue
        q = int(targets[free[0]])
        sentinel = dist[a, a]
        dist[a, :] += 2 * (bits[:, p].astype(np.int64) - bits[:, q])
        dist[a, a] = sentinel
        dist[:, a] = dist[a, :]
        bits[a, p] = False
        bits[a, q] = True
        return True, budget
    return False, budget


def _tight_pairs(dist: np.ndarray, floor: int):
    """Yield the pairs a < b with dist[a, b] == floor in lexicographic order.

    Rows come from the row minima (the diagonal holds a sentinel above every
    real distance); a row's columns are only scanned when the row is reached,
    so a search that accepts the first pair never looks at the rest.
    """
    for a in np.flatnonzero(dist.min(axis=1) == floor):
        for b in np.flatnonzero(dist[a, a + 1 :] == floor):
            yield int(a), int(a + 1 + b)


def generate_masks(n_classes: int, d: int, s: int, seed: int) -> MaskSet:
    """Build the per-class mask set for (n_classes, d, s), seeded."""
    if n_classes < 1:
        raise ValueError(f"need at least one class, got n_classes={n_classes}")
    if not 1 <= s <= d:
        raise ValueError(f"require 1 <= s <= d, got s={s}, d={d}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got seed={seed}")

    if n_classes * s <= d:
        # disjoint regime: contiguous block per class, maximal distances 2s
        bits = np.zeros((n_classes, d), dtype=np.uint8)
        for cls in range(n_classes):
            bits[cls, cls * s : (cls + 1) * s] = 1
        pre = 2 * s if n_classes >= 2 else None
        return MaskSet(bits, s=s, presearch_min_hamming=pre)

    # overlap regime (so n_classes >= 2); one bool matrix for the whole search
    rng = np.random.default_rng(seed)
    bits = np.zeros((n_classes, d), dtype=bool)
    for cls in range(n_classes):
        bits[cls, np.sort(rng.choice(d, size=s, replace=False))] = True

    dist = _pairwise_hamming(bits)
    np.fill_diagonal(dist, 2 * s + 2)  # above any distance, so min() skips it
    presearch = int(dist.min())

    budget = 10 * n_classes * d
    improved = True
    while budget > 0 and improved:
        improved = False
        # a rejected attempt never changes dist, so walking the pairs lazily
        # visits them in the same order as a snapshot taken here
        floor = int(dist.min())
        for a, b in _tight_pairs(dist, floor):
            accepted, budget = _improve_mask(bits, dist, a, b, floor, budget)
            if not accepted and budget > 0:
                accepted, budget = _improve_mask(bits, dist, b, a, floor, budget)
            if accepted:
                improved = True
                break
            if budget <= 0:
                break

    return MaskSet(bits, s=s, presearch_min_hamming=presearch)


def format_mask_rows(mask_set: MaskSet) -> str:
    """Human-readable dump: one row of d 0/1 characters per class."""
    return "".join("".join(map(str, row)) + "\n" for row in mask_set.bits.tolist())
