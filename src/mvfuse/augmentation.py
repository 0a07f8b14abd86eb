"""Missing-data augmentation generators.

Three families: enumerating every non-empty view combination (the core
augmentation of this engine), dropping whole views at random, and dropping
random time steps of a series. All generators are pure functions of their
inputs and the supplied generator, so training stays reproducible.

Combinations and dropping masks are index tuples, which name patterns in the
training layer; ``pattern_matrix`` is the one conversion into the boolean
(K, m) availability patterns that the model and the fusions take.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .model import LEVELS

AUG_KINDS = ("none", "com", "sensd", "tempd")


@dataclass(frozen=True)
class AugPolicy:
    kind: str = "none"
    level: str = "feature"
    tempd_ratio: float = 0.3

    def __post_init__(self):
        if self.kind not in AUG_KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if self.level not in LEVELS:
            raise ValueError(f"unknown augmentation level {self.level!r}")
        if not 0.0 <= self.tempd_ratio < 1.0:
            raise ValueError("tempd_ratio must be in [0, 1)")


def enumerate_combinations(m: int) -> list[tuple[int, ...]]:
    """All non-empty subsets of ``range(m)``, largest first, then lexicographic.

    The order is deterministic so training runs are reproducible; the
    combination loss is order invariant, so the choice costs nothing.
    """
    if m < 1:
        raise ValueError("need at least one view")
    out: list[tuple[int, ...]] = []
    for size in range(m, 0, -1):
        out.extend(combinations(range(m), size))
    return out


def pattern_matrix(masks: list[tuple[int, ...]], m: int) -> np.ndarray:
    """Index-tuple masks as the boolean (K, m) availability patterns the
    model and the fusions take."""
    patterns = np.zeros((len(masks), m), dtype=bool)
    patterns[np.repeat(np.arange(len(masks)), [len(mask) for mask in masks]),
             np.fromiter(chain.from_iterable(masks), dtype=np.intp)] = True
    return patterns


def sensd_mask(m: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Drop each view independently with probability 1/2, rejecting the empty set."""
    if m < 1:
        raise ValueError("need at least one view")
    while True:
        keep = rng.random(m) < 0.5
        if keep.any():
            return tuple(int(i) for i in np.flatnonzero(keep))


def tempd_mask(series: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Zero out floor(ratio*T) uniformly chosen time steps of a (T, c) series."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must be in [0, 1)")
    arr = np.array(series, dtype=np.float64)
    T = arr.shape[0]
    n_drop = int(ratio * T)
    if n_drop == 0:
        return arr
    drop = rng.choice(T, size=n_drop, replace=False)
    arr[drop] = 0.0
    return arr
