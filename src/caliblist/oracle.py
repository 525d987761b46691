"""Ground-truth enumeration and numerical property checkers.

Everything here is an independent oracle: exhaustive search over all
candidate lists, and randomized checkers that probe the defining
inequalities of overlap measures (nonnegativity, unique maximization,
monotone diminishing returns, ordered submodularity) on sampled inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Instance,
    ItemPositionSet,
    OverlapMeasure,
    Sequence,
    ValidationError,
    fg_set,
    seq_objective,
)
from .matroid import LaminarMatroid, max_weight_basis, set_to_sequence
from .repro import GenParams, generate_instances

__all__ = [
    "SEARCH_LIMIT",
    "CheckResult",
    "MdrResult",
    "RatioReport",
    "exhaustive_opt",
    "check_overlap_axioms",
    "check_mdr",
    "check_ordered_submodular",
    "check_set_to_sequence",
    "ratio_report",
]

SEARCH_LIMIT = 10_000_000
_BLOCK = 1 << 16  # candidate rows enumerated and scored at a time
_VIOLATION_TOL = 1e-9


def _index_blocks(n: int, k: int, allow_repeats: bool, count: int):
    """The ``count`` candidate index rows in lexicographic order, in blocks.

    With repeats, row c is c written in base n; otherwise the rows are
    ``itertools.permutations(range(n), k)``. A search of at most
    ``_BLOCK`` rows is one block.
    """
    perms = itertools.permutations(range(n), k)
    for start in range(0, count, _BLOCK):
        rows = min(_BLOCK, count - start)
        if not allow_repeats:
            flat = itertools.chain.from_iterable(itertools.islice(perms, rows))
            yield np.fromiter(flat, np.int64, rows * k).reshape(rows, k)
            continue
        c = np.arange(start, start + rows)
        idx = np.empty((rows, k), np.int64)
        for j in range(k - 1, -1, -1):
            c, idx[:, j] = np.divmod(c, n)
        yield idx


def exhaustive_opt(
    inst: Instance,
    measure: OverlapMeasure | None = None,
    objective: Callable[[Sequence], float] | None = None,
    allow_repeats: bool | None = None,
) -> tuple[Sequence, float]:
    """Enumerate every candidate list and return the exact maximizer.

    The universe is the genre set in discrete mode (repeats allowed by
    default) and the item catalog otherwise (repeats disallowed by
    default). Ties go to the lexicographically smallest sequence. With a
    measure, the value equals ``seq_objective`` of the returned list, bit
    for bit. Raises :class:`ValidationError` when the search space exceeds
    10^7 lists.
    """
    if (measure is None) == (objective is None):
        raise ValidationError("pass exactly one of measure or objective")
    universe = list(inst.universe())
    k = inst.k
    if allow_repeats is None:
        allow_repeats = inst.mode == "discrete"
    n = len(universe)
    count = n ** k if allow_repeats else math.perm(n, k)  # 0 when k > n
    if count > SEARCH_LIMIT:
        raise ValidationError("search space too large for exhaustive_opt")
    if count == 0:
        raise ValidationError("no candidate list: too few elements")

    if objective is None:
        core = inst.dense
        # WM[j] holds w_j times each element's row: each position is one
        # gather, added in the order of DenseCore.mixture
        WM = core.w[:, None, None] * core.Q[[core.row[e] for e in universe]]
        best_row, best_val = None, -math.inf
        for idx in _index_blocks(n, k, allow_repeats, count):
            Q = WM[0].take(idx[:, 0], 0)
            for j in range(1, k):
                Q += WM[j].take(idx[:, j], 0)
            vals = measure.value_batch(core.p, Q)
            b = int(np.argmax(vals))  # first max = lexicographically smallest
            if best_row is None or vals[b] > best_val:
                best_row, best_val = idx[b], float(vals[b])
        return Sequence(tuple(universe[i] for i in best_row)), best_val

    gen = (itertools.product(range(n), repeat=k) if allow_repeats
           else itertools.permutations(range(n), k))
    best_seq, best_val = None, -math.inf
    for tup in gen:
        seq = Sequence(tuple(universe[i] for i in tup))
        val = objective(seq)
        if val > best_val:
            best_seq, best_val = seq, val
    return best_seq, best_val


@dataclass
class CheckResult:
    passed: bool
    trials: int
    violations: int = 0
    counterexample: dict | None = None

    def __bool__(self) -> bool:
        return self.passed


def _random_pair(rng: np.random.Generator) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Genres g1..gn (2 <= n <= 6), a distribution p and a subdistribution q.

    Every mass is positive, so no genre is outside both supports.
    """
    genres = [f"g{n + 1}" for n in range(int(rng.integers(2, 7)))]
    p = rng.uniform(0.0, 1.0, size=len(genres))
    q = rng.uniform(0.0, 1.0, size=len(genres))
    return genres, p / p.sum(), q / q.sum() * rng.uniform(0.1, 1.0)


def check_overlap_axioms(G: OverlapMeasure, trials: int, seed: int) -> CheckResult:
    """Sample (p, q) pairs; flag negativity or non-unique maximization at p."""
    rng = np.random.default_rng(seed)
    violations = 0
    counterexample = None
    for _ in range(trials):
        genres, p, q = _random_pair(rng)
        self_val = float(G.value(p, p))
        val = float(G.value(p, q))
        if val < 0 or not val < self_val - 1e-12:
            violations += 1
            if counterexample is None:
                counterexample = {
                    "p": dict(zip(genres, p.tolist())),
                    "q": dict(zip(genres, q.tolist())),
                    "value": val, "value_at_p": self_val,
                }
    return CheckResult(violations == 0, trials, violations, counterexample)


@dataclass
class MdrResult:
    mdr: CheckResult
    smdr: CheckResult

    @property
    def passed(self) -> bool:
        return self.mdr.passed and self.smdr.passed

    def __bool__(self) -> bool:
        return self.passed


def _random_nested_sets(rng: np.random.Generator, ground: list) -> tuple[set, set, tuple]:
    """R ⊆ T and an element e ∉ T, drawn uniformly at random."""
    perm = list(ground)
    rng.shuffle(perm)
    e = perm.pop()
    t_size = int(rng.integers(0, len(perm) + 1))
    T = set(perm[:t_size])
    r_size = int(rng.integers(0, t_size + 1))
    R = set(rng.choice(len(T), size=r_size, replace=False)) if T else set()
    R = {perm[i] for i in R}
    return R, T, e


def check_mdr(G: OverlapMeasure, params: GenParams | None = None,
              trials: int = 1000, seed: int = 42) -> MdrResult:
    """Probe monotonicity and submodularity of the set extension of G.

    The MDR half draws distributional instances from ``params``, by default
    up to 4 genres, 5 items and k = 4. The SMDR half additionally
    finite-difference checks that G itself is coordinatewise non-decreasing
    in q.
    """
    params = params or GenParams(max_genres=4, max_items=5, max_k=4)
    rng = np.random.default_rng(seed)
    insts = generate_instances(params, "distributional", seed=seed + 1, n=trials)

    mdr_viol = 0
    mdr_ce = None
    for t in range(trials):
        inst = insts[t]
        ground = [(i, j) for i in inst.item_ids for j in range(1, inst.k + 1)]
        R, T, e = _random_nested_sets(rng, ground)
        fR = fg_set(G, ItemPositionSet(frozenset(R)), inst)
        fT = fg_set(G, ItemPositionSet(frozenset(T)), inst)
        fRe = fg_set(G, ItemPositionSet(frozenset(R | {e})), inst)
        fTe = fg_set(G, ItemPositionSet(frozenset(T | {e})), inst)
        mono_ok = fT >= fR - _VIOLATION_TOL
        sub_ok = (fRe - fR) >= (fTe - fT) - _VIOLATION_TOL
        if not (mono_ok and sub_ok):
            mdr_viol += 1
            if mdr_ce is None:
                mdr_ce = {"R": sorted(R), "T": sorted(T), "e": e,
                          "F(R)": fR, "F(T)": fT,
                          "F(R+e)": fRe, "F(T+e)": fTe}

    smdr_viol = 0
    smdr_ce = None
    delta = 1e-6
    for _ in range(trials):
        genres, p, q = _random_pair(rng)
        g = int(rng.integers(0, len(genres)))
        # a raw vector: the bump may lift q's mass above 1
        bumped = q.copy()
        bumped[g] += delta
        hi = float(G.value(p, bumped))
        lo = float(G.value(p, q))
        if hi < lo - _VIOLATION_TOL:
            smdr_viol += 1
            if smdr_ce is None:
                smdr_ce = {"p": dict(zip(genres, p.tolist())),
                           "q": dict(zip(genres, q.tolist())),
                           "genre": genres[g], "before": lo, "after": hi}

    return MdrResult(
        mdr=CheckResult(mdr_viol == 0, trials, mdr_viol, mdr_ce),
        smdr=CheckResult(smdr_viol == 0, trials, smdr_viol, smdr_ce),
    )


def check_ordered_submodular(
    f: Callable[[Sequence], float],
    universe: list[str],
    k: int,
    trials: int = 1000,
    seed: int = 42,
) -> CheckResult:
    """Probe the sequence inequality on random prefixes and substitutions."""
    rng = np.random.default_rng(seed)
    elems = sorted(universe)
    violations = 0
    counterexample = None
    for _ in range(trials):
        s = [elems[int(r)] for r in rng.integers(0, len(elems), size=k)]
        i = int(rng.integers(1, k + 1))
        s_bar = elems[int(rng.integers(0, len(elems)))]
        prefix = Sequence(tuple(s[:i - 1]))
        lhs = f(Sequence(tuple(s[:i]))) - f(prefix)
        substituted = s[:i - 1] + [s_bar] + s[i:]
        rhs = f(Sequence(tuple(s))) - f(Sequence(tuple(substituted)))
        if lhs < rhs - _VIOLATION_TOL:
            violations += 1
            if counterexample is None:
                counterexample = {"sequence": s, "index": i,
                                  "substitute": s_bar, "lhs": lhs, "rhs": rhs}
    return CheckResult(violations == 0, trials, violations, counterexample)


def check_set_to_sequence(G: OverlapMeasure, trials: int, seed: int) -> CheckResult:
    """Probe that the list built from a laminar basis R is worth at least fg(R).

    Draws ``trials`` distributional instances with 4 to 6 items and k <= 4,
    and one basis per instance: the first that a uniformly shuffled scan of
    the ground set builds.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    counterexample = None
    params = GenParams(min_items=4, max_items=6, max_k=4)
    for inst in generate_instances(params, "distributional", seed=seed, n=trials):
        m = LaminarMatroid(inst.item_ids, inst.k)
        pairs = m.ground_set()
        rng.shuffle(pairs)
        R = ItemPositionSet(max_weight_basis(
            m, {e: -rank for rank, e in enumerate(pairs)}))
        seq = set_to_sequence(R, inst, G)
        if seq_objective(G, seq, inst) < fg_set(G, R, inst) - 1e-12:
            violations += 1
            counterexample = counterexample or {
                "basis": sorted(R.pairs), "sequence": list(seq.entries)}
    return CheckResult(violations == 0, trials, violations, counterexample)


@dataclass
class RatioReport:
    instances: int
    min_ratio: float
    median_ratio: float
    mean_ratio: float
    worst_instance: dict | None = None


def ratio_report(
    algorithm: Callable[[Instance], tuple[Sequence, float]],
    measure: OverlapMeasure,
    generator: Callable[[int, int], list[Instance]],
    n: int,
    seed: int = 42,
) -> RatioReport:
    """Run an algorithm against exhaustive optimum over generated instances.

    ``generator(seed, n)`` must yield validated instances small enough for
    exhaustive search.
    """
    from .io import instance_to_dict

    ratios = []
    worst = None
    for inst in generator(seed, n):
        seq, val = algorithm(inst)
        opt_seq, opt_val = exhaustive_opt(inst, measure=measure)
        ratio = val / opt_val if opt_val > 0 else 1.0
        ratios.append(ratio)
        if worst is None or ratio < worst[0]:
            worst = (ratio, inst, seq, opt_seq)
    arr = np.array(ratios)
    worst_info = {
        "ratio": worst[0],
        "instance": instance_to_dict(worst[1]),
        "algorithm_sequence": list(worst[2].entries),
        "optimal_sequence": list(worst[3].entries),
    }
    return RatioReport(
        instances=n,
        min_ratio=float(arr.min()),
        median_ratio=float(np.median(arr)),
        mean_ratio=float(arr.mean()),
        worst_instance=worst_info,
    )
