"""Greedy list construction.

Two variants: a generic sequence greedy that repeatedly appends the element
with the largest marginal objective gain (1/2-approximate for
ordered-submodular objectives), and a specialized discrete-genre greedy that
packs position weight into genre bins using closed-form square-root gains
(2/3-approximate under the squared-Hellinger overlap).

The sequence greedy takes the universe's rows of ``Instance.dense.Q`` once
and scores every position over all of them in one batch when the objective
is the package's own :class:`ListObjective` (what
:func:`sequence_objective_fn` returns); any other callable is called once
per candidate. Both give the same list, gains and runner-ups, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from copy import copy
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import (
    Instance,
    OverlapMeasure,
    PositionWeights,
    Sequence,
    ValidationError,
    ordered_sum,
    seq_objective,
)

__all__ = [
    "GreedyStep",
    "GreedyTrace",
    "ListObjective",
    "greedy_sequence",
    "discrete_greedy",
    "discrete_objective",
    "best_length_solve",
    "sequence_objective_fn",
]


@dataclass(frozen=True)
class GreedyStep:
    position: int
    chosen: str
    gain: float
    runner_up: str | None
    runner_up_gain: float


@dataclass
class GreedyTrace:
    steps: list[GreedyStep] = field(default_factory=list)

    def record(self, step: GreedyStep) -> None:
        if not math.isfinite(step.gain):
            raise ValidationError("non-finite greedy gain")
        if step.runner_up is not None and step.gain < step.runner_up_gain:
            raise ValidationError("chosen gain below runner-up gain")
        self.steps.append(step)

    @property
    def gains(self) -> list[float]:
        return [s.gain for s in self.steps]


@dataclass(frozen=True, eq=False)
class ListObjective:
    """``seq_objective`` of one measure and instance, called on a list."""

    G: OverlapMeasure
    inst: Instance

    def __call__(self, seq: Sequence) -> float:
        return seq_objective(self.G, seq, self.inst)

    def extension_scorer(self, elements: list[str]) -> Callable[[Sequence], np.ndarray]:
        """A function giving ``self(seq.append(e))`` for each of ``elements``.

        The elements' rows are taken once. Each call adds ``w_j · Q_e`` to the
        prefix mixture in the order of :meth:`DenseCore.mixture`, in one batch,
        so every value equals the call's. The batch is written into one buffer,
        so each call's values are only good until the next call.
        """
        core, k = self.inst.dense, self.inst.k
        Q = core.Q.take([core.row[e] for e in elements], 0)
        batch = np.empty_like(Q)

        def values(seq: Sequence) -> np.ndarray:
            if len(seq) >= k:
                raise ValidationError(f"sequence longer than k={k}")
            q = core.mixture([core.row[e] for e in seq], core.w[:len(seq)])
            np.multiply(Q, core.w[len(seq)], out=batch)
            np.add(batch, q, out=batch)  # q + w_j · Q_e: float addition commutes
            return self.G.value_batch(core.p, batch)

        return values


def sequence_objective_fn(G: OverlapMeasure, inst: Instance) -> ListObjective:
    """Wrap ``seq_objective`` as a single-argument objective."""
    return ListObjective(G, inst)


def _best_two(vals: np.ndarray, dead: np.ndarray) -> tuple[int | None, int | None]:
    """Indices of the first strict maximum and of the first maximum of the rest.

    These are what a scan keeps with ``if v > best: ... elif v > runner:``
    from -inf, skipping ``dead``: NaN and -inf are never kept.
    """
    v = np.fmax(vals, -np.inf)  # NaN -> -inf, in a new array
    v[dead] = -np.inf
    b = int(v.argmax())
    if v[b] == -np.inf:
        return None, None
    v[b] = -np.inf
    r = int(v.argmax())
    return b, (r if v[r] > -np.inf else None)


def greedy_sequence(
    objective: Callable[[Sequence], float],
    universe: list[str],
    k: int,
    allow_repeats: bool = False,
) -> tuple[Sequence, GreedyTrace]:
    """Build a length-k sequence by repeated best-marginal-gain appends.

    Ties break toward the lexicographically smallest element. Raises
    :class:`ValidationError` if the universe runs out before k picks when
    repeats are disallowed. A :class:`ListObjective` scores each position's
    candidates in one batch; any other callable is called once per
    candidate.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    if not universe:
        raise ValidationError("empty universe")
    elements = sorted(universe)
    dead = np.zeros(len(elements), bool)  # picked, when repeats are disallowed
    if isinstance(objective, ListObjective):
        score = objective.extension_scorer(elements)
    else:
        score = lambda seq: [-math.inf if out else objective(seq.append(e))
                             for e, out in zip(elements, dead.tolist())]
    seq = Sequence()
    trace = GreedyTrace()
    current = objective(seq)
    for pos in range(1, k + 1):
        if dead.all():
            raise ValidationError(f"universe exhausted at position {pos}")
        vals = np.asarray(score(seq), dtype=float)
        b, r = _best_two(vals, dead)  # picked elements drop out
        best = runner = None
        best_val = runner_val = -math.inf
        if b is not None:
            best, best_val = elements[b], float(vals[b])
        if r is not None:
            runner, runner_val = elements[r], float(vals[r])
        # Objectives may use -inf as an "undefined on this prefix" sentinel
        # (e.g. log-of-mixture scores on the empty list); gains are then
        # reported relative to zero.
        base = current if math.isfinite(current) else 0.0
        trace.record(GreedyStep(pos, best, best_val - base,
                                runner, runner_val - base))
        seq = seq.append(best)
        if not allow_repeats:  # every copy of a repeated universe entry
            lo, hi = bisect_left(elements, best), bisect_right(elements, best)
            dead[lo:hi] = True
        current = best_val
    return seq, trace


def discrete_objective(inst: Instance) -> Callable[[Sequence], float]:
    """Squared-Hellinger objective on genre sequences in closed form.

    The value depends only on the total position weight packed into each
    genre: sum over genres of sqrt(p(g)) * sqrt(assigned weight).
    """
    p = inst.target

    def value(seq: Sequence) -> float:
        load: dict[str, float] = {}
        for j, g in enumerate(seq, start=1):
            load[g] = load.get(g, 0.0) + inst.weights[j]
        return ordered_sum(math.sqrt(p.get(g) * a) for g, a in load.items())

    return value


def discrete_greedy(inst: Instance) -> tuple[Sequence, GreedyTrace]:
    """Slot-by-slot genre assignment with closed-form marginal gains.

    At slot i the gain of genre g is sqrt(p(g)) * (sqrt(alpha(g) + w_i) -
    sqrt(alpha(g))); ties break toward the smaller genre id. Items are
    assumed available in unlimited supply per genre.
    """
    if inst.mode != "discrete":
        raise ValidationError("discrete_greedy requires a discrete-mode instance")
    genres = sorted(inst.genres)
    if not genres:
        raise ValidationError("empty genre set")
    p = inst.target
    load: dict[str, float] = {}  # position weight packed into each genre
    seq = Sequence()
    trace = GreedyTrace()
    for pos in range(1, inst.k + 1):
        w = inst.weights[pos]
        best = runner = None
        best_gain = runner_gain = -math.inf
        for g in genres:
            a = load.get(g, 0.0)
            gain = math.sqrt(p.get(g)) * (math.sqrt(a + w) - math.sqrt(a))
            if gain > best_gain:
                runner, runner_gain = best, best_gain
                best, best_gain = g, gain
            elif gain > runner_gain:
                runner, runner_gain = g, gain
        trace.record(GreedyStep(pos, best, best_gain, runner, runner_gain))
        load[best] = load.get(best, 0.0) + w
        seq = seq.append(best)
    return seq, trace


def truncate_instance(inst: Instance, length: int) -> Instance:
    """Restrict to the first ``length`` positions, renormalizing the weights.

    The result shares the parent's items, built or not, and its dense core
    except ``w``, which is built from its own weights (``PositionWeights``
    may renormalize them again).
    """
    if not 1 <= length <= inst.k:
        raise ValidationError(f"length {length} outside [1, {inst.k}]")
    w = inst.weights.w[:length]
    total = ordered_sum(w)
    weights = PositionWeights(tuple(v / total for v in w))
    short_w = np.array(weights.w)
    short_w.setflags(write=False)
    short = copy(inst)  # a replace() would build the items of a loaded instance
    vars(short).update(weights=weights, dense=replace(inst.dense, w=short_w))
    return short


def best_length_solve(
    inst: Instance,
    solver: Callable[[Instance], tuple[Sequence, float]],
) -> tuple[int, Sequence, float]:
    """Solve at every candidate length 1..k and keep the best result.

    For each length the leading weights are renormalized to sum to 1.
    Ties prefer the smallest length.
    """
    best: tuple[int, Sequence, float] | None = None
    for length in range(1, inst.k + 1):
        seq, value = solver(truncate_instance(inst, length))
        if best is None or value > best[2]:
            best = (length, seq, value)
    return best
