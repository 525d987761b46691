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
    "solve_continuous",
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
        """Whether a set of pairs is independent: its 0/1 point is in the polytope."""
        return FractionalPoint(dict.fromkeys(pairs, 1.0)).in_polytope(self, tol=0.0)


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

    Ties go to the smaller (item, position); a missing weight counts as 0.
    Whether a pair fits depends only on the chosen set's per-position
    counts, which are kept as the scan goes.
    """
    ground = m.ground_set()
    # a stable sort on (-weight, item): ties keep the ground set's order
    order = np.lexsort((np.arange(len(ground)) % len(m.item_ids),
                        [-weights.get(e, 0.0) for e in ground]))
    chosen: set[Pair] = set()
    counts = [0] * (m.k + 1)
    for t in order.tolist():
        e = ground[t]
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
        sums, items = [0.0] * (m.k + 1), set(m.item_ids)
        for (i, j), v in self.x.items():
            if j < 1 or j > m.k or i not in items:
                raise ValidationError(f"pair {(i, j)} outside ground set")
            sums[j] += v
        return m.fits(sums, tol)


def _mean_gains_by_call(F: SetFunction, ground: list[Pair], S: np.ndarray) -> np.ndarray:
    """``PairFunction.mean_gains(m)(S)`` for any set function, on ``m.ground_set()``.

    One call per marginal.
    """
    gains = [0.0] * len(ground)
    for row in S.tolist():
        members = frozenset(e for e, inside in zip(ground, row) if inside)
        base = F(members)
        for n, (e, inside) in enumerate(zip(ground, row)):
            if not inside:
                gains[n] += F(members | {e}) - base
    return np.array(gains) / len(S)


def continuous_greedy(F: SetFunction, m: Matroid, steps: int, samples: int,
                      seed: int) -> FractionalPoint:
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
    if not ground:
        raise ValidationError("the matroid's ground set is empty")
    index = {e: n for n, e in enumerate(ground)}
    mean_gains = (F.mean_gains(m) if isinstance(F, PairFunction)
                  else partial(_mean_gains_by_call, F, ground))
    x = np.zeros(len(ground))
    for _ in range(steps):
        # row by row, the same draws as one rng.random(len(ground)) per sample
        S = rng.random((samples, len(ground))) < x
        gains = mean_gains(S)
        for e in max_weight_basis(m, dict(zip(ground, gains.tolist()))):
            x[index[e]] += 1.0 / steps
    return FractionalPoint({e: min(v, 1.0) for e, v in zip(ground, x.tolist())})


def pipage_round(m: Matroid, x: FractionalPoint, F: SetFunction | None,
                 seed: int) -> ItemPositionSet:
    """Round a polytope point to an independent set, lossless in expectation.

    Works by mean-preserving pairwise swaps; the multilinear extension is
    convex along every two-coordinate direction, so expected value never
    decreases for submodular F. Each column's fractional entries form a
    stack, the first item on top. Passes swap the top two of every column
    holding two or more, in column order, until none does; the laminar
    matroid then swaps the top two of one stack of what is left, the first
    column on top, until one entry is left. A swap moves one of its two
    coordinates to 0 or 1, snaps only those two, within 1e-12, and puts
    back what stays fractional, the earlier entry on top. Each remaining
    entry is rounded by one Bernoulli draw, in item order. The objective is
    not consulted. Integral inputs pass through as their support.
    """
    if not x.in_polytope(m, tol=1e-6):
        raise ValidationError("point outside the matroid polytope")
    snap = lambda v: 0.0 if abs(v) < 1e-12 else 1.0 if abs(v - 1.0) < 1e-12 else v
    vals = {e: snap(min(max(v, 0.0), 1.0)) for e, v in x.x.items()}
    rng = np.random.default_rng(seed)

    def swap_top(stack: list[Pair]) -> None:
        a, b = stack.pop(), stack.pop()
        up = min(1.0 - vals[a], vals[b])
        down = min(vals[a], 1.0 - vals[b])
        shift = up if rng.random() < down / (up + down) else -down
        vals[a] = snap(vals[a] + shift)
        vals[b] = snap(vals[b] - shift)
        stack += [e for e in (b, a) if 0.0 < vals[e] < 1.0]

    frac = sorted((e for e, v in vals.items() if 0.0 < v < 1.0), key=lambda e: (e[1], e[0]))
    stacks = [list(col)[::-1] for _, col in groupby(frac, key=lambda e: e[1])]
    while busy := [s for s in stacks if len(s) >= 2]:
        for s in busy:
            swap_top(s)
    left = [s[0] for s in reversed(stacks) if s]  # the first column on top
    if isinstance(m, LaminarMatroid):
        # A prefix ending between the top two entries holds integers plus the
        # earlier one, so filling it keeps the cap; a shift to the later lowers it.
        while len(left) >= 2:
            swap_top(left)
    # At most one fractional entry is left per column (partition) or in
    # all (laminar), so rounding each on its own keeps the set independent.
    for e in sorted(left):
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
    """fg or hatfg (:meth:`DenseCore.pairs_value`) of one instance and
    measure, called on a set of pairs."""

    G: OverlapMeasure
    core: DenseCore
    first_only: bool

    def __call__(self, pairs) -> float:
        return self.core.pairs_value(self.G, pairs, self.first_only)

    def mean_gains(self, m: Matroid) -> Callable[[np.ndarray], np.ndarray]:
        """The function of ``S`` that gives, per pair e of ``m.ground_set()``,
        the mean over the rows of ``S`` of F(set ∪ {e}) − F(set).

        The arrays of the ground set's layout (position-major, the sorted
        items at every position) are built here, once per
        :func:`continuous_greedy` call. Row s of the boolean matrix ``S``
        marks the pairs of the ground set in one sampled set. Adding (i, j)
        adds ``delta · Q_i`` to the set's mixture: ``w_j`` for hatfg, and for
        fg ``w_j − w_first(i)`` if j precedes the item's earliest position
        (``w_first`` is 0 for an absent item). A pair with ``delta = 0``
        gains exactly 0. The candidate mixtures of a chunk of samples form
        one genre-major (genres, samples, pairs) block, which ``value_batch``
        reads as its transpose. Mixtures are summed by matrix products, so
        the gains agree with ``_mean_gains_by_call`` only within 1e-12, not
        bit for bit.
        """
        core, G = self.core, self.G
        items, k = sorted(m.item_ids), m.k
        n = len(items)
        col = np.tile(np.arange(n), k)
        pos = np.arange(k).repeat(n)
        w = core.w[pos]
        Q_items = core.Q[[core.item_row[i] for i in items]]
        Q_pairs = Q_items[col]
        by_genre = np.ascontiguousarray(Q_pairs.T)  # Q_pairs, genre-major
        w0 = np.append(core.w[:k], 0.0)  # position index k: the item is absent
        chunk = max(1, _CHUNK_BYTES // Q_pairs.nbytes)

        def mean_gains(S: np.ndarray) -> np.ndarray:
            total = np.zeros(n * k)
            for start in range(0, len(S), chunk):
                block = S[start:start + chunk]
                if self.first_only:
                    # each item's earliest sampled position index, k if absent
                    first = np.full((n, len(block)), k)
                    at = block.reshape(len(block), k, n)
                    for j in range(k - 1, -1, -1):  # the earliest is written last
                        first[at[:, j].T] = j
                    q = w0[first].T @ Q_items
                    first = first.T[:, col]
                    delta = np.where(pos < first, w - w0[first], 0.0)
                else:
                    q = np.where(block, w, 0.0) @ Q_pairs
                    delta = np.where(block, 0.0, w)
                mixtures = np.multiply(by_genre[:, None], delta, order="C")
                mixtures += q.T[:, :, None]
                vals = G.value_batch(core.p, mixtures.reshape(len(by_genre), -1).T)
                base = G.value_batch(core.p, q)  # each sampled set's value
                vals = vals.reshape(delta.shape) - base[:, None]
                gains = np.where(delta != 0, vals, 0.0)
                # add sample by sample, in the order of the per-call loop
                gains[0] += total
                total = np.add.accumulate(gains)[-1]
            return total / len(S)

        return mean_gains


def fg_function(G: OverlapMeasure, inst: Instance) -> PairFunction:
    """Earliest-occurrence set extension as a frozenset closure."""
    return PairFunction(G, inst.dense, first_only=True)


def hatfg_function(G: OverlapMeasure, inst: Instance) -> PairFunction:
    """Every-occurrence set extension as a frozenset closure."""
    return PairFunction(G, inst.dense, first_only=False)


def solve_continuous(inst: Instance, G: OverlapMeasure, *, allow_repeats: bool,
                     steps: int, samples: int, seed: int) -> tuple[Sequence, float]:
    """Continuous greedy + rounding, then a list.

    With repeats: hatfg on the partition matroid, one item per position,
    the smallest item id where rounding left a position empty. Without:
    fg on the laminar matroid, ordered by :func:`set_to_sequence`, which
    is (1 - 1/e)-approximate in expectation for SMDR measures.
    """
    if allow_repeats and not inst.item_ids:
        raise ValidationError("need at least one item to fill the list")
    if not allow_repeats and inst.mode != "distributional":
        raise ValidationError(
            "a repeat-free continuous solve requires distributional mode")
    if not allow_repeats and len(inst.item_ids) < inst.k:
        raise ValidationError("need at least k items for a repeat-free list")
    m = (PartitionMatroid if allow_repeats else LaminarMatroid)(inst.item_ids, inst.k)
    F = PairFunction(G, inst.dense, first_only=not allow_repeats)
    x = continuous_greedy(F, m, steps, samples, seed)
    R = pipage_round(m, x, F, seed=seed + 1)
    if allow_repeats:
        by_pos = {j: i for i, j in R}
        filler = min(inst.item_ids)
        seq = Sequence(tuple(by_pos.get(j, filler) for j in range(1, inst.k + 1)))
    else:
        seq = set_to_sequence(R, inst, G)
    return seq, seq_objective(G, seq, inst)
