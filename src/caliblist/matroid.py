"""Matroid machinery for the distributional (1 - 1/e) pipeline.

The ground set is all (item, position) pairs. The partition matroid allows
at most one item per position (lists with repeats); the laminar matroid
caps every position prefix at its length (lists without repeats, after the
set-to-sequence conversion). Optimization runs continuous greedy on a
Monte-Carlo multilinear estimate and rounds the fractional point to a basis
with mean-preserving pairwise swaps, which lose nothing in expectation for
submodular objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Callable

import numpy as np

from .core import (
    DenseCore,
    Instance,
    ItemPositionSet,
    OverlapMeasure,
    Sequence,
    ValidationError,
    earliest,
    seq_objective,
)

__all__ = [
    "PartitionMatroid",
    "LaminarMatroid",
    "FractionalPoint",
    "max_weight_basis",
    "continuous_greedy",
    "pipage_round",
    "set_to_sequence",
    "solve_distributional",
    "solve_with_repeats",
    "fg_function",
    "hatfg_function",
    "PairFunction",
]

Pair = tuple[str, int]
SetFunction = Callable[[frozenset], float]


@dataclass(frozen=True)
class _PairMatroid:
    """A matroid over (item, position) pairs whose bases have k elements.

    Subclasses state their constraints once, in :meth:`fits`, over the
    per-position totals of a set (counts) or of a fractional point (sums).
    """

    item_ids: tuple[str, ...]
    k: int

    def ground_set(self) -> list[Pair]:
        items = sorted(self.item_ids)
        return [(i, j) for j in range(1, self.k + 1) for i in items]

    def fits(self, sums, tol: float = 0.0) -> bool:
        """Whether per-position totals ``sums[1..k]`` meet every constraint."""
        raise NotImplementedError

    def independent(self, pairs) -> bool:
        counts = [0] * (self.k + 1)
        for i, j in pairs:
            if j < 1 or j > self.k or i not in self.item_ids:
                raise ValidationError(f"pair {(i, j)} outside ground set")
            counts[j] += 1
        return self.fits(counts)


class PartitionMatroid(_PairMatroid):
    """One item per position: |R ∩ {(·, ℓ)}| <= 1 for every ℓ."""

    def fits(self, sums, tol: float = 0.0) -> bool:
        return all(s <= 1 + tol for s in sums[1:])


class LaminarMatroid(_PairMatroid):
    """Prefix-capacity matroid: |R ∩ {(·, j) : j <= ℓ}| <= ℓ for every ℓ."""

    def fits(self, sums, tol: float = 0.0) -> bool:
        running = 0
        for ell in range(1, self.k + 1):
            running += sums[ell]
            if running > ell + tol:
                return False
        return True


Matroid = PartitionMatroid | LaminarMatroid


def max_weight_basis(m: Matroid, weights: dict[Pair, float]) -> frozenset:
    """Matroid greedy: scan pairs by decreasing weight, keep what fits.

    Whether a pair fits depends only on the chosen set's per-position
    counts, which are kept as the scan goes.
    """
    chosen: set[Pair] = set()
    counts = [0] * (m.k + 1)
    for e in sorted(m.ground_set(), key=lambda e: (-weights.get(e, 0.0), e)):
        counts[e[1]] += 1
        if not m.fits(counts):
            counts[e[1]] -= 1
            continue
        chosen.add(e)
        if len(chosen) == m.k:
            break
    return frozenset(chosen)


@dataclass(frozen=True)
class FractionalPoint:
    """Coordinates in [0,1] per (item, position) pair."""

    x: dict[Pair, float]

    def __post_init__(self):
        for e, v in self.x.items():
            if v < -1e-9 or v > 1 + 1e-9:
                raise ValidationError(f"coordinate {e} = {v} outside [0,1]")

    def in_polytope(self, m: Matroid, tol: float = 1e-9) -> bool:
        sums = [0.0] * (m.k + 1)
        for (_, j), v in self.x.items():
            sums[j] += v
        return m.fits(sums, tol)


def _mean_gains_by_call(F: SetFunction, ground: list[Pair], S: np.ndarray) -> np.ndarray:
    """:meth:`PairFunction.mean_gains` for any set function, one call per marginal."""
    gains = [0.0] * len(ground)
    for row in S.tolist():
        members = frozenset(e for e, inside in zip(ground, row) if inside)
        base = F(members)
        for n, (e, inside) in enumerate(zip(ground, row)):
            if not inside:
                gains[n] += F(members | {e}) - base
    return np.array(gains) / len(S)


def continuous_greedy(
    F: SetFunction,
    m: Matroid,
    steps: int = 100,
    samples: int = 200,
    seed: int = 42,
) -> FractionalPoint:
    """Fractional ascent: T steps of size 1/T toward the best-response basis.

    Per-pair marginal weights are sampled at the current point; the result
    is an average of T bases and therefore lies in the matroid polytope.
    The package's own closures score all samples at once on the dense
    core; any other set function is called once per marginal. The batched
    gains agree with ``_mean_gains_by_call`` only within 1e-12, not bit for
    bit, so the two can pick different bases on near ties.
    """
    if steps < 1 or samples < 1:
        raise ValidationError("steps and samples must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    ground = m.ground_set()
    index = {e: n for n, e in enumerate(ground)}
    mean_gains = (F.mean_gains if isinstance(F, PairFunction)
                  else partial(_mean_gains_by_call, F))
    x = np.zeros(len(ground))
    for _ in range(steps):
        # row by row, the same draws as one rng.random(len(ground)) per sample
        S = rng.random((samples, len(ground))) < x
        gains = mean_gains(ground, S)
        for e in max_weight_basis(m, dict(zip(ground, gains.tolist()))):
            x[index[e]] += 1.0 / steps
    return FractionalPoint({e: min(v, 1.0) for e, v in zip(ground, x.tolist())})


def pipage_round(m: Matroid, x: FractionalPoint, F: SetFunction | None,
                 seed: int) -> ItemPositionSet:
    """Round a polytope point to an independent set, lossless in expectation.

    Works by mean-preserving pairwise swaps; the multilinear extension is
    convex along every two-coordinate direction, so expected value never
    decreases for submodular F. The fractional entries are kept in one list
    in (position, item) order. Each pass swaps the first two entries of
    every column that still holds two or more, in column order, until every
    column holds at most one. On the laminar matroid, swaps then pair the
    first two entries of the list until one is left. A swap moves one of its
    two coordinates to 0 or 1 and snaps only those two, within 1e-12; no
    other coordinate changed. Each remaining entry is rounded by one
    Bernoulli draw, in item order. The objective is not consulted. Integral
    inputs pass through as their support.
    """
    if not x.in_polytope(m, tol=1e-6):
        raise ValidationError("point outside the matroid polytope")
    snap = lambda v: 0.0 if abs(v) < 1e-12 else 1.0 if abs(v - 1.0) < 1e-12 else v
    vals = {e: snap(min(max(v, 0.0), 1.0)) for e, v in x.x.items()}
    rng = np.random.default_rng(seed)
    frac = sorted((e for e, v in vals.items() if 0.0 < v < 1.0),
                  key=lambda e: (e[1], e[0]))
    while len(frac) >= 2:
        columns = (list(col) for _, col in groupby(frac, key=lambda e: e[1]))
        pairs = [col[:2] for col in columns if len(col) >= 2]
        if not pairs:
            if not isinstance(m, LaminarMatroid):
                break
            # A prefix ending between the two leftmost fractional columns
            # holds integers plus the earlier entry, so filling that entry
            # keeps it within its cap, and a shift to the later one lowers it.
            pairs = [frac[:2]]
        for a, b in pairs:
            up = min(1.0 - vals[a], vals[b])
            down = min(vals[a], 1.0 - vals[b])
            shift = up if rng.random() < down / (up + down) else -down
            vals[a] = snap(vals[a] + shift)
            vals[b] = snap(vals[b] - shift)
        frac = [e for e in frac if 0.0 < vals[e] < 1.0]
    # At most one fractional entry is left per column (partition) or in
    # all (laminar), so rounding each on its own keeps the set independent.
    for e in sorted(frac):
        vals[e] = 1.0 if rng.random() < vals[e] else 0.0

    support = frozenset(e for e, v in vals.items() if v == 1.0)
    if not m.independent(support):
        raise ValidationError("rounded set is not independent")
    return ItemPositionSet(support)


def set_to_sequence(R: ItemPositionSet, inst: Instance,
                    G: OverlapMeasure) -> Sequence:
    """Order a laminar basis into a list at least as good as its set value.

    Items are sorted by their earliest position in R (ties by id); if fewer
    than k distinct items occur, the lexicographically smallest unused items
    pad the tail. Requires an SMDR measure for the value guarantee.
    """
    m = LaminarMatroid(inst.item_ids, inst.k)
    if len(R) != inst.k or not m.independent(R.pairs):
        raise ValidationError("R is not a basis of the laminar matroid")
    first = earliest(R)
    ordered = sorted(first, key=lambda i: (first[i], i))
    unused = [i for i in sorted(inst.item_ids) if i not in first]
    entries = (ordered + unused)[:inst.k]
    if len(entries) < inst.k:
        raise ValidationError("not enough items to fill the list")
    return Sequence(tuple(entries))


# ---------------------------------------------------------------------------
# Set-function closures and end-to-end solvers
# ---------------------------------------------------------------------------


# One sample chunk's candidate mixtures stay below this many bytes.
_CHUNK_BYTES = 16 << 20


@dataclass(frozen=True, eq=False)
class PairFunction:
    """fg or hatfg of one instance and measure, called on a set of pairs.

    With ``first_only`` (fg) each item counts at its earliest position only;
    otherwise (hatfg) every (item, position) pair contributes.
    """

    G: OverlapMeasure
    core: DenseCore
    first_only: bool

    def __call__(self, pairs) -> float:
        if self.first_only:
            pairs = earliest(pairs).items()
        return self.core.pairs_value(self.G, pairs)

    def mean_gains(self, ground: list[Pair], S: np.ndarray) -> np.ndarray:
        """Mean over the rows of ``S`` of F(set ∪ {e}) − F(set), per pair e.

        Row s of the boolean matrix ``S`` marks the pairs of ``ground`` in
        one sampled set. Adding (i, j) adds ``delta · Q_i`` to the set's
        mixture: ``w_j`` for hatfg, and for fg ``w_j − w_first(i)`` if j
        precedes the item's earliest position (``w_first`` is 0 for an
        absent item). A pair with ``delta = 0`` gains exactly 0. Mixtures
        are summed by matrix products, so the gains agree with
        ``_mean_gains_by_call`` only within 1e-12, not bit for bit.
        """
        core = self.core
        items = {i: n for n, i in enumerate(dict.fromkeys(i for i, _ in ground))}
        col = np.array([items[i] for i, _ in ground], dtype=int)
        pos = np.array([j - 1 for _, j in ground], dtype=int)
        w = core.w[pos]
        Q_items = core.Q[[core.item_row[i] for i in items]]
        # row 0 of every sample's block is the set itself (delta 0)
        Q_pairs = np.vstack([np.zeros(Q_items.shape[1]), Q_items[col]])
        k = len(core.w)
        w0 = np.append(core.w, 0.0)  # position index k: the item is absent
        chunk = max(1, _CHUNK_BYTES // Q_pairs.nbytes)
        total = np.zeros(len(ground))
        for start in range(0, len(S), chunk):
            block = S[start:start + chunk]
            if self.first_only:
                # each item's earliest sampled position index, k if absent
                first = np.full((len(items), len(block)), k)
                np.minimum.at(first, col, np.where(block, pos, k).T)
                q = w0[first.T] @ Q_items
                first = first.T[:, col]
                delta = np.where(pos < first, w - w0[first], 0.0)
            else:
                q = np.where(block, w, 0.0) @ Q_pairs[1:]
                delta = np.where(block, 0.0, w)
            delta = np.hstack([np.zeros((len(block), 1)), delta])
            mixtures = q[:, None, :] + delta[:, :, None] * Q_pairs
            vals = self.G.value_batch(core.p, mixtures.reshape(-1, Q_pairs.shape[1]))
            vals = vals.reshape(len(block), -1)
            gains = np.where(delta[:, 1:] != 0, vals[:, 1:] - vals[:, :1], 0.0)
            # add sample by sample, in the order of the per-call loop
            total = np.add.accumulate(np.vstack([total, gains]))[-1]
        return total / len(S)


def fg_function(G: OverlapMeasure, inst: Instance) -> PairFunction:
    """Earliest-occurrence set extension as a frozenset closure."""
    return PairFunction(G, inst.dense, first_only=True)


def hatfg_function(G: OverlapMeasure, inst: Instance) -> PairFunction:
    """Every-occurrence set extension as a frozenset closure."""
    return PairFunction(G, inst.dense, first_only=False)


def solve_distributional(
    inst: Instance,
    G: OverlapMeasure,
    steps: int = 100,
    samples: int = 200,
    seed: int = 42,
) -> tuple[Sequence, float]:
    """Continuous greedy + rounding on the laminar matroid, then sequencing.

    (1 - 1/e)-approximate in expectation for SMDR measures; the returned
    list has no repeated items.
    """
    if inst.mode != "distributional":
        raise ValidationError("solve_distributional requires distributional mode")
    if len(inst.items) < inst.k:
        raise ValidationError("need at least k items for a repeat-free list")
    m = LaminarMatroid(inst.item_ids, inst.k)
    F = fg_function(G, inst)
    x = continuous_greedy(F, m, steps=steps, samples=samples, seed=seed)
    R = pipage_round(m, x, F, seed=seed + 1)
    seq = set_to_sequence(R, inst, G)
    return seq, seq_objective(G, seq, inst)


def solve_with_repeats(
    inst: Instance,
    G: OverlapMeasure,
    steps: int = 100,
    samples: int = 200,
    seed: int = 42,
) -> tuple[Sequence, float]:
    """Continuous greedy + rounding on the partition matroid (repeats allowed)."""
    if not inst.items:
        raise ValidationError("need at least one item to fill the list")
    m = PartitionMatroid(inst.item_ids, inst.k)
    F = hatfg_function(G, inst)
    x = continuous_greedy(F, m, steps=steps, samples=samples, seed=seed)
    R = pipage_round(m, x, F, seed=seed + 1)
    by_pos = {j: i for i, j in R}
    filler = sorted(inst.item_ids)[0]
    seq = Sequence(tuple(by_pos.get(j, filler) for j in range(1, inst.k + 1)))
    return seq, seq_objective(G, seq, inst)
