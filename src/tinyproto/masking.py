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
  them has it.

  The search runs on plain Python ints used as bitsets.  Each mask row and
  each column (the set of masks having that dimension) is one int, each
  mask's floor partners (the masks at exactly floor from it) are one int,
  and one more int marks the rows that have a partner above them; the
  distances are a list of lists.  The tightest pairs (a < b) are visited in
  lexicographic order: the lowest marked row, then its partners above it in
  ascending order.  A rejected attempt changes nothing, so this is the
  order of a snapshot taken before the first attempt.  A candidate p costs
  one OR over a's partners that lack p, and the target is the lowest bit of
  the free targets.  An accepted move p -> q changes dist[a, c] only for
  the masks c in exactly one of column p and column q, so it updates those
  distances and their partner bits; only when the last pair at the floor is
  gone is the whole (K, K) matrix scanned again, for the new floor.

Generation is deterministic in (K, d, s, seed); the set produced before the
local search is recorded so callers can verify the search never hurt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import as_int

__all__ = [
    "Mask",
    "MaskSet",
    "generate_masks",
    "min_pairwise_hamming",
    "format_mask_rows",
]


@dataclass(frozen=True, eq=False)
class Mask:
    """Class ``class_id``'s row of a :class:`MaskSet`, as a read-only view.

    Equality is identity, and the hash is the identity's.
    """

    class_id: int
    bits: np.ndarray

    @property
    def dim(self) -> int:
        return self.bits.shape[0]

    @property
    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True, eq=False)
class MaskSet:
    """One mask per class, each with the popcount s of row 0: row c of ``bits``.

    ``bits`` is checked once and kept as a read-only ``(K, d)`` uint8 copy,
    and ``s`` is read from it.  ``presearch_min_hamming`` is the minimum
    pairwise Hamming distance of the seeded starting point, before any local
    search (None when there are fewer than two classes, or for a set rebuilt
    from the wire).  Equality is identity, and the hash is the identity's:
    two sets of equal bits are not ``==``.
    """

    bits: np.ndarray
    s: int = field(init=False)
    presearch_min_hamming: int | None = field(default=None, kw_only=True)

    def __post_init__(self):
        raw = np.asarray(self.bits)
        if raw.ndim != 2 or raw.shape[0] < 1:
            raise ValueError(f"expected a (K, d) bit matrix with K >= 1, got shape {raw.shape}")
        # checked before the uint8 cast, which would truncate 0.5 to 0
        counts = np.count_nonzero(raw, axis=1)
        s = int(counts[0])
        for bad, what in (
            (((raw != 0) & (raw != 1)).any(axis=1), "has values other than 0 and 1"),
            (counts != s, f"does not have popcount {s}"),
        ):
            if bad.any():
                raise ValueError(f"mask for class {int(np.flatnonzero(bad)[0])} {what}")
        bits = raw.astype(np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "s", s)

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
    """(K, K) int64 matrix of pairwise Hamming distances for 0/1 rows.

    The overlaps are one float64 matrix product: every partial sum is a
    whole number no larger than d, so it is exact while d < 2**53.
    """
    b = bits.astype(np.float64)
    overlap = (b @ b.T).astype(np.int64)
    pop = np.count_nonzero(bits, axis=1)
    return pop[:, None] + pop[None, :] - 2 * overlap


def min_pairwise_hamming(mask_set: MaskSet) -> int:
    """Exact minimum Hamming distance over all class pairs."""
    k = mask_set.n_classes
    if k < 2:
        raise ValueError("need at least two masks to compare")
    dist = _pairwise_hamming(mask_set.bits)
    off_diag = dist[np.triu_indices(k, k=1)]
    return int(off_diag.min())


def _row_ints(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as an int with column j at bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bit_indices(bitset: int):
    """Yield the positions of the set bits of ``bitset``, lowest first."""
    while bitset:
        low = bitset & -bitset
        bitset ^= low
        yield low.bit_length() - 1


class _Climb:
    """The overlap-regime hill climb, on plain Python ints and lists.

    ``rows[c]`` is mask c with dimension j at bit j (``full`` has all ``d``
    bits set), ``cols[j]`` the masks having dimension j with mask c at bit
    c, and ``dist[a][c]`` their Hamming distance (the diagonal holds a
    sentinel above every real distance).  ``partners[a]`` holds the masks at
    exactly ``floor`` from a, and ``above`` the rows a that have a partner
    c > a.
    """

    def __init__(self, bits: np.ndarray, dist: np.ndarray):
        self.d = bits.shape[1]
        self.full = (1 << self.d) - 1
        self.rows = _row_ints(bits)
        self.cols = _row_ints(bits.T)
        self.dist = dist.tolist()
        self._set_floor()

    def _set_floor(self) -> None:
        """Take the floor from the distances and rebuild every partner set.

        This is the one O(K^2) step; it runs at the start and whenever a
        move takes away the last pair at the floor.
        """
        self.floor = floor = min(map(min, self.dist))
        self.partners = partners = []
        self.above = 0
        for a, row in enumerate(self.dist):
            # the membership test runs in C and skips most rows
            if floor in row:
                partners.append(sum(1 << c for c, v in enumerate(row) if v == floor))
            else:
                partners.append(0)
            self._mark(a)

    def _mark(self, a: int) -> None:
        """Set row a's bit in ``above`` exactly when a has a partner above it."""
        if self.partners[a] >> (a + 1):
            self.above |= 1 << a
        else:
            self.above &= ~(1 << a)

    def tight_pairs(self):
        """Yield the pairs a < b at the floor in lexicographic order.

        The sets are read lazily, so a search that accepts the first pair
        never walks the rest; a caller must stop after an accepted move.
        """
        for a in _bit_indices(self.above):
            for offset in _bit_indices(self.partners[a] >> (a + 1)):
                yield a, a + 1 + offset

    def improve(self, a: int, b: int, budget: int) -> tuple[bool, int]:
        """Try to widen pair (a, b) by moving one 1-bit of mask a.

        Candidate moves take a shared 1-position p to a position q where
        both masks are 0 (each such move widens the pair by 2).  The p are
        scanned in ascending order, each charged the number of targets
        against the budget, and for each the lowest target that no partner
        of a lacking p has is taken (see the module docstring).  Returns
        (accepted, remaining budget).
        """
        rows = self.rows
        shared = rows[a] & rows[b]
        targets = self.full & ~(rows[a] | rows[b])
        if not targets:
            return False, budget
        n_targets = targets.bit_count()
        tight = [rows[c] for c in _bit_indices(self.partners[a])]
        while shared:
            if budget <= 0:
                return False, budget
            budget -= n_targets
            p_bit = shared & -shared
            shared ^= p_bit
            blocked = 0
            for row in tight:
                if not row & p_bit:
                    blocked |= row
            free = targets & ~blocked
            if free:
                self._move(a, p_bit.bit_length() - 1, (free & -free).bit_length() - 1)
                return True, budget
        return False, budget

    def _move(self, a: int, p: int, q: int) -> None:
        """Move bit p of mask a to q and update what that changes.

        dist[a, c] grows by 2 for the masks c having p but not q, falls by 2
        for those having q but not p, and is unchanged for every other c.
        """
        rows, cols, dist, partners = self.rows, self.cols, self.dist, self.partners
        floor, row_a, a_bit = self.floor, self.dist[a], 1 << a
        further = (cols[p] & ~cols[q]) ^ a_bit
        closer = cols[q] & ~cols[p]
        rows[a] ^= (1 << p) | (1 << q)
        cols[p] ^= a_bit
        cols[q] ^= a_bit
        # the bit walks are inlined: these two loops are the search's hot path
        while further:
            c_bit = further & -further
            further ^= c_bit
            c = c_bit.bit_length() - 1
            if row_a[c] == floor:
                partners[a] ^= c_bit
                partners[c] ^= a_bit
                if c < a:
                    self._mark(c)
            row_a[c] += 2
            dist[c][a] += 2
        while closer:
            c_bit = closer & -closer
            closer ^= c_bit
            c = c_bit.bit_length() - 1
            row_a[c] -= 2
            dist[c][a] -= 2
            if row_a[c] == floor:
                partners[a] |= c_bit
                partners[c] |= a_bit
                if c < a:
                    self.above |= c_bit
        self._mark(a)
        if not self.above:
            self._set_floor()

    def matrix(self) -> np.ndarray:
        """The masks as a (K, d) uint8 matrix."""
        d = self.d
        width = (d + 7) // 8
        packed = np.frombuffer(
            b"".join(row.to_bytes(width, "little") for row in self.rows), dtype=np.uint8
        )
        return np.unpackbits(
            packed.reshape(len(self.rows), width), axis=1, count=d, bitorder="little"
        )


def generate_masks(n_classes: int, d: int, s: int, seed: int) -> MaskSet:
    """Build the per-class mask set for (n_classes, d, s), seeded."""
    n_classes = as_int("n_classes", n_classes)
    d = as_int("d", d)
    s = as_int("s", s)
    seed = as_int("seed", seed)
    if n_classes < 1:
        raise ValueError(f"need at least one class, got n_classes={n_classes}")
    if not 1 <= s <= d:
        raise ValueError(f"require 1 <= s <= d, got s={s}, d={d}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got seed={seed}")

    if n_classes * s <= d:
        # disjoint regime: contiguous block per class, maximal distances 2s
        bits = np.zeros((n_classes, d), dtype=np.uint8)
        bits[:, : n_classes * s] = np.repeat(np.eye(n_classes, dtype=np.uint8), s, axis=1)
        pre = 2 * s if n_classes >= 2 else None
        return MaskSet(bits, presearch_min_hamming=pre)

    # overlap regime (so n_classes >= 2): the seeded start, then the climb
    rng = np.random.default_rng(seed)
    bits = np.zeros((n_classes, d), dtype=np.uint8)
    for cls in range(n_classes):
        bits[cls, rng.choice(d, size=s, replace=False)] = 1
    dist = _pairwise_hamming(bits)
    np.fill_diagonal(dist, 2 * s + 2)  # above any distance, so min() skips it
    climb = _Climb(bits, dist)
    presearch = climb.floor

    budget = 10 * n_classes * d
    improved = True
    while budget > 0 and improved:
        improved = False
        for a, b in climb.tight_pairs():
            accepted, budget = climb.improve(a, b, budget)
            if not accepted and budget > 0:
                accepted, budget = climb.improve(b, a, budget)
            if accepted:
                improved = True
                break
            if budget <= 0:
                break

    return MaskSet(climb.matrix(), presearch_min_hamming=presearch)


def format_mask_rows(mask_set: MaskSet) -> str:
    """Human-readable dump: one row of d 0/1 characters per class."""
    bits = mask_set.bits
    newlines = np.full((bits.shape[0], 1), ord("\n"), dtype=np.uint8)
    return np.hstack([bits + ord("0"), newlines]).tobytes().decode("ascii")
