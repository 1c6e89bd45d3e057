"""Hard-threshold selection of the K largest elements or K largest peaks.

Both modes are deterministic: value ties are broken toward the lowest
index, which keeps seeded Monte-Carlo runs exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SupportSet:
    """Ordered set of distinct atom indices.

    Order is meaningful (greedy solvers record selection order); equality
    of dataclass instances is order-sensitive, use :meth:`same_atoms` for
    set comparison.
    """

    indices: tuple

    def __post_init__(self):
        idx = tuple(map(int, self.indices))
        if idx and min(idx) < 0:
            raise ValueError("atom indices must be nonnegative")
        if len(set(idx)) != len(idx):
            raise ValueError("atom indices must be distinct")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i):
        return i in self.indices

    @property
    def sorted_indices(self) -> tuple:
        return tuple(sorted(self.indices))

    def as_set(self) -> frozenset:
        return frozenset(self.indices)

    def same_atoms(self, other) -> bool:
        other_idx = other.indices if isinstance(other, SupportSet) else other
        return frozenset(self.indices) == frozenset(other_idx)


def peak_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of local maxima: v[i] > v[i-1] and v[i] >= v[i+1].

    Virtual boundary values are -inf, so either endpoint can be a peak.
    The strict-left/weak-right rule picks the first index of any plateau.
    """
    v = np.asarray(values, dtype=np.float64)
    mask = np.empty(v.shape, dtype=bool)
    if v.size:
        np.greater(v[1:], v[:-1], out=mask[1:])
        mask[0] = v[0] > -np.inf
        # v[-1] >= -inf holds unless v[-1] is NaN, and then v[-1] > v[-2] failed
        mask[:-1] &= v[:-1] >= v[1:]
    return mask


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k largest values, lowest index on ties.

    The k-th largest value comes from a partition, O(M), instead of a sort.
    Every value at or above it is kept; when ties at it overfill the k
    slots, the highest-index ties are dropped.
    """
    kth = np.partition(values, values.size - k)[values.size - k]
    chosen = (values >= kth).nonzero()[0]
    if chosen.size > k:
        ties = (values[chosen] == kth).nonzero()[0]
        chosen = np.delete(chosen, ties[ties.size - (chosen.size - k) :])
    return chosen


def hard_threshold(gamma, k: int, peak: bool = False) -> SupportSet:
    """Support of the K largest elements (or K largest peaks) of a power vector.

    Parameters
    ----------
    gamma : array_like
        Nonnegative power vector.
    k : int
        Number of entries to retain.
    peak : bool
        False selects the K largest elements; True selects the K largest
        local peaks. If the vector has fewer than K peaks, the remaining
        slots are filled with the largest not-yet-selected entries so the
        support always has exactly K indices.

    Returns
    -------
    SupportSet
        The selected indices in ascending order.
    """
    g = np.asarray(gamma, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError("power vector must be 1-D")
    if not np.isfinite(g).all():
        raise ValueError("power vector entries must be finite")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > g.size:
        raise ValueError(f"k={k} exceeds the vector length {g.size}")

    if peak:
        mask = peak_mask(g)
        peaks = mask.nonzero()[0]
        if peaks.size >= k:
            support_idx = peaks[_top_k(g[peaks], k)]
        else:
            rest = (~mask).nonzero()[0]
            fill = rest[_top_k(g[rest], k - peaks.size)]
            support_idx = np.sort(np.concatenate((peaks, fill)))
    else:
        support_idx = _top_k(g, k)

    return SupportSet(tuple(support_idx.tolist()))
