"""Ground-truth enumeration and numerical property checkers.

Everything here is an independent oracle: exhaustive search over all
candidate lists, and randomized checkers that probe the defining
inequalities of overlap measures (nonnegativity, unique maximization,
monotone diminishing returns, ordered submodularity) on sampled inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

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
from .repro import GenParams, instance_stream

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
_BLOCK = 1 << 16  # most candidate lists scored in one value_batch
_CACHED_LEAVES = 1 << 12  # largest search tree kept between calls
_VIOLATION_TOL = 1e-9


@functools.lru_cache(maxsize=64)
def _subtree(m: int, depth: int, repeats: bool) -> tuple:
    """The lexicographic tree of the ``depth``-long lists over ``m`` elements.

    Level j (0-based) holds the lists of length j + 1 as a pair of arrays:
    each node's parent at level j - 1 (the root for j = 0) and the rank of
    the element it appends. Nodes are in lexicographic order, parent first.
    Without repeats a node's children skip the ranks on its path.

    A tree of L leaves over two or more elements has fewer than 3 L nodes
    of 16 bytes. :func:`_first_max` keeps only trees of at most
    ``_CACHED_LEAVES`` leaves, so the cache holds at most 12 MB; a larger
    tree costs a fraction of its search to build. 64 trees hold every
    cached shape of a ``ratio-suite`` benchmark pass.
    """
    levels = []
    free = np.ones((1, m), bool)  # the ranks each node's children append
    for _ in range(depth):
        # row-major: by parent, then rank; contiguous copies take faster
        parent, rank = map(np.ascontiguousarray, np.nonzero(free))
        if repeats:
            free = np.ones((len(parent), m), bool)
        else:
            free = free[parent]
            free[np.arange(len(parent)), rank] = False
        for a in (parent, rank):
            a.flags.writeable = False
        levels.append((parent, rank))
    return tuple(levels)


def _head_blocks(n: int, h: int, repeats: bool, per_block: int):
    """The lexicographic ``h``-long index lists over ``n``, in blocks of rows."""
    heads = (itertools.product(range(n), repeat=h) if repeats
             else itertools.permutations(range(n), h))
    total = n ** h if repeats else math.perm(n, h)
    for start in range(0, total, per_block):
        rows = min(per_block, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(heads, rows))
        yield np.fromiter(flat, np.intp, rows * h).reshape(rows, h)


def _ranks(levels: tuple, leaf: int) -> list[int]:
    """The ranks on the path from the root to ``leaf``, by parent pointers."""
    ranks = []
    for parent, rank in reversed(levels):
        ranks.append(int(rank[leaf]))
        leaf = parent[leaf]
    return ranks[::-1]


def _first_max(measure: OverlapMeasure, p: np.ndarray, WM: np.ndarray,
               repeats: bool) -> tuple[tuple[int, ...], float]:
    """The lexicographically first index list of maximum value, and the value.

    ``WM`` is a C-contiguous (positions, genres, elements) array: ``WM[j]``
    holds the weighted element rows of position j genre-major, one column
    per element. The lists form a tree whose node at depth j has its
    parent's mixture plus one column of ``WM[j]``: one add per node, and
    every mixture is added in position order, as :meth:`DenseCore.mixture`
    adds it. Node mixtures are kept genre-major too, and ``value_batch``
    reads each block as its transpose. The first h positions (the heads)
    are enumerated, h as small as keeps the :func:`_subtree` of the other
    positions to at most ``_BLOCK`` leaves. Each block of heads is expanded
    level by level and scored with one ``value_batch`` of at most
    ``_BLOCK`` lists.
    """
    k, g, n = WM.shape
    depth = k  # the deepest subtree with at most _BLOCK leaves
    while (leaves := (n ** depth if repeats
                      else math.perm(n - k + depth, depth))) > _BLOCK:
        depth -= 1
    h = k - depth
    tree = _subtree if leaves <= _CACHED_LEAVES else _subtree.__wrapped__
    levels = tree(n if repeats else n - h, depth, repeats)
    if h == 0:  # one block, no heads: ranks are elements
        M = WM[0].take(levels[0][1], 1)
        for j in range(1, k):
            parent, rank = levels[j]
            M = M.take(parent, 1)
            M += WM[j].take(rank, 1)
        vals = measure.value_batch(p, M.T)
        b = int(np.argmax(vals))  # first max = lexicographically smallest
        return tuple(_ranks(levels, b)), float(vals[b])

    per_block = _BLOCK // leaves
    # Buffers reused by every block: fresh arrays of megabytes per block
    # cost more in page faults than in arithmetic. Each level keeps its
    # nodes' mixtures; one buffer holds the rows a level adds. A block's
    # arrays are leading slices, so they stay contiguous. (numpy buffers
    # ``take`` into ``out`` unless mode is "clip" or "wrap".)
    size = min(per_block, n ** h if repeats else math.perm(n, h))
    nodes = [np.empty(g * size * len(rank)) for _, rank in levels]
    added = np.empty(g * (1 if repeats else size) * leaves)
    best, best_val = None, -math.inf
    for H in _head_blocks(n, h, repeats, per_block):
        M = WM[0].take(H[:, :1], 1)  # (genres, heads, nodes)
        for j in range(1, h):
            M += WM[j].take(H[:, j:j + 1], 1)
        if not repeats:  # each head's unused elements, in order
            free = np.ones((len(H), n), bool)
            free[np.arange(len(H))[:, None], H] = False
            avail = np.nonzero(free)[1].reshape(len(H), n - h)
        for j, (parent, rank), buf in zip(range(h, k), levels, nodes):
            # the rows a subtree may add (shared by all heads with repeats),
            # then the row each node adds
            elems = WM[j][:, None] if repeats else WM[j].take(avail, 1)
            shape = (g, elems.shape[1], len(rank))
            rows = elems.take(rank, 2, mode="clip",
                              out=added[:math.prod(shape)].reshape(shape))
            shape = (g, len(H), len(rank))
            M = M.take(parent, 2, mode="clip",
                       out=buf[:math.prod(shape)].reshape(shape))
            M += rows
        vals = measure.value_batch(p, M.reshape(g, -1).T)
        b = int(np.argmax(vals))
        if best is None or vals[b] > best_val:
            head, leaf = divmod(b, leaves)
            tail = _ranks(levels, leaf)
            if not repeats:
                tail = avail[head, tail].tolist()
            best, best_val = (*H[head].tolist(), *tail), float(vals[b])
    return best, best_val


def exhaustive_opt(
    inst: Instance,
    measure: OverlapMeasure,
    allow_repeats: bool | None = None,
) -> tuple[Sequence, float]:
    """Enumerate every candidate list and return the exact maximizer.

    The universe is the genre set in discrete mode (repeats allowed by
    default) and the item catalog otherwise (repeats disallowed by
    default). Ties go to the lexicographically smallest sequence. Lists
    share prefixes: each list's mixture is its prefix's plus one weighted
    row, and at most ``_BLOCK`` lists are scored per ``value_batch`` call
    (see :func:`_first_max`). The weighted rows ``WM`` are built once, as a
    C-contiguous (positions, genres, elements) array, so every mixture
    block is genre-major. The value equals ``seq_objective`` of the
    returned list, bit for bit. Raises :class:`ValidationError` when the
    search space exceeds 10^7 lists.
    """
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

    core = inst.dense
    # WM[j] holds w_j times each element's row, genre-major
    rows = core.Q.take([core.row[e] for e in universe], 0)
    WM = np.multiply(core.w[:, None, None], rows.T, order="C")
    best, best_val = _first_max(measure, core.p, WM, allow_repeats)
    return Sequence(tuple(universe[i] for i in best)), best_val


@dataclass
class CheckResult:
    passed: bool
    trials: int
    violations: int = 0
    counterexample: dict | None = None


def _tally(trials: int, probes) -> CheckResult:
    """Count the counterexamples among ``probes``, keeping only the first.

    ``probes`` yields one counterexample dict or None per trial; it is read
    lazily, so a check holds one probe's result at a time.
    """
    violations = 0
    first = None
    for ce in probes:
        if ce is not None:
            violations += 1
            first = ce if first is None else first
    return CheckResult(violations == 0, trials, violations, first)


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

    def probe():
        genres, p, q = _random_pair(rng)
        self_val = float(G.value(p, p))
        val = float(G.value(p, q))
        if val < 0 or not val < self_val - 1e-12:
            return {"p": dict(zip(genres, p.tolist())),
                    "q": dict(zip(genres, q.tolist())),
                    "value": val, "value_at_p": self_val}

    return _tally(trials, (probe() for _ in range(trials)))


@dataclass
class MdrResult:
    mdr: CheckResult
    smdr: CheckResult

    @property
    def passed(self) -> bool:
        return self.mdr.passed and self.smdr.passed


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


def check_mdr(G: OverlapMeasure, trials: int, seed: int) -> MdrResult:
    """Probe monotonicity and submodularity of the set extension of G.

    The MDR half draws distributional instances with up to 4 genres, 5
    items and k = 4. The SMDR half additionally finite-difference checks
    that G itself is coordinatewise non-decreasing in q. Both halves share
    one generator, the MDR half drawing first.
    """
    rng = np.random.default_rng(seed)
    params = GenParams(max_genres=4, max_items=5, max_k=4)
    insts = instance_stream(params, "distributional", seed + 1)

    def mdr_probe(inst):
        ground = [(i, j) for i in inst.item_ids for j in range(1, inst.k + 1)]
        R, T, e = _random_nested_sets(rng, ground)
        fR = fg_set(G, ItemPositionSet(frozenset(R)), inst)
        fT = fg_set(G, ItemPositionSet(frozenset(T)), inst)
        fRe = fg_set(G, ItemPositionSet(frozenset(R | {e})), inst)
        fTe = fg_set(G, ItemPositionSet(frozenset(T | {e})), inst)
        mono_ok = fT >= fR - _VIOLATION_TOL
        sub_ok = (fRe - fR) >= (fTe - fT) - _VIOLATION_TOL
        if not (mono_ok and sub_ok):
            return {"R": sorted(R), "T": sorted(T), "e": e,
                    "F(R)": fR, "F(T)": fT, "F(R+e)": fRe, "F(T+e)": fTe}

    def smdr_probe():
        genres, p, q = _random_pair(rng)
        g = int(rng.integers(0, len(genres)))
        # a raw vector: the bump may lift q's mass above 1
        bumped = q.copy()
        bumped[g] += 1e-6
        hi = float(G.value(p, bumped))
        lo = float(G.value(p, q))
        if hi < lo - _VIOLATION_TOL:
            return {"p": dict(zip(genres, p.tolist())),
                    "q": dict(zip(genres, q.tolist())),
                    "genre": genres[g], "before": lo, "after": hi}

    # the MDR half draws from rng before the SMDR half
    mdr = _tally(trials, map(mdr_probe, itertools.islice(insts, trials)))
    smdr = _tally(trials, (smdr_probe() for _ in range(trials)))
    return MdrResult(mdr=mdr, smdr=smdr)


def check_ordered_submodular(
    f: Callable[[Sequence], float],
    universe: list[str],
    k: int,
    trials: int,
    seed: int,
) -> CheckResult:
    """Probe the sequence inequality on random prefixes and substitutions."""
    rng = np.random.default_rng(seed)
    elems = sorted(universe)

    def probe():
        s = [elems[int(r)] for r in rng.integers(0, len(elems), size=k)]
        i = int(rng.integers(1, k + 1))
        s_bar = elems[int(rng.integers(0, len(elems)))]
        prefix = Sequence(tuple(s[:i - 1]))
        lhs = f(Sequence(tuple(s[:i]))) - f(prefix)
        substituted = s[:i - 1] + [s_bar] + s[i:]
        rhs = f(Sequence(tuple(s))) - f(Sequence(tuple(substituted)))
        if lhs < rhs - _VIOLATION_TOL:
            return {"sequence": s, "index": i,
                    "substitute": s_bar, "lhs": lhs, "rhs": rhs}

    return _tally(trials, (probe() for _ in range(trials)))


def check_set_to_sequence(G: OverlapMeasure, trials: int, seed: int) -> CheckResult:
    """Probe that the list built from a laminar basis R is worth at least fg(R).

    Draws ``trials`` distributional instances with 4 to 6 items and k <= 4,
    and one basis per instance: the first that a uniformly shuffled scan of
    the ground set builds.
    """
    rng = np.random.default_rng(seed)
    params = GenParams(min_items=4, max_items=6, max_k=4)

    def probe(inst):
        m = LaminarMatroid(inst.item_ids, inst.k)
        pairs = m.ground_set()
        rng.shuffle(pairs)
        R = ItemPositionSet(max_weight_basis(
            m, {e: -rank for rank, e in enumerate(pairs)}))
        seq = set_to_sequence(R, inst, G)
        if seq_objective(G, seq, inst) < fg_set(G, R, inst) - 1e-12:
            return {"basis": sorted(R.pairs), "sequence": list(seq.entries)}

    return _tally(trials, map(probe, itertools.islice(
        instance_stream(params, "distributional", seed), trials)))


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
    instances: Iterable[Instance],
) -> RatioReport:
    """Run an algorithm against exhaustive optimum over ``instances``.

    The instances must be validated and small enough for exhaustive search.
    They are read one at a time; the report keeps each ratio and the first
    run of the smallest.
    """
    from .io import instance_to_dict

    ratios = []
    worst = None  # (ratio, instance, its list, an optimal list)
    for inst in instances:
        seq, val = algorithm(inst)
        opt_seq, opt_val = exhaustive_opt(inst, measure=measure)
        ratio = val / opt_val if opt_val > 0 else 1.0
        ratios.append(ratio)
        if worst is None or ratio < worst[0]:  # the first of the smallest
            worst = (ratio, inst, seq, opt_seq)
    if worst is None:
        raise ValidationError("no instances to report on")
    arr = np.array(ratios)
    return RatioReport(
        instances=len(ratios),
        min_ratio=float(arr.min()),
        median_ratio=float(np.median(arr)),
        mean_ratio=float(arr.mean()),
        worst_instance={
            "ratio": worst[0],
            "instance": instance_to_dict(worst[1]),
            "algorithm_sequence": list(worst[2].entries),
            "optimal_sequence": list(worst[3].entries),
        },
    )
