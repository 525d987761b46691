"""Domain types and overlap measures for calibrated list recommendation.

The central objects are genre (sub)distributions, position-weighted item
catalogs, and overlap measures: nonnegative similarity functions on
(distribution, subdistribution) pairs that are uniquely maximized when the
two agree. Lists induce a weighted genre mixture, and the overlap between
that mixture and the user's target distribution is the objective every
algorithm in this package maximizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Mapping

import numpy as np

TOL = 1e-9

__all__ = [
    "TOL",
    "ValidationError",
    "ordered_sum",
    "Subdistribution",
    "PositionWeights",
    "Instance",
    "DenseCore",
    "Sequence",
    "ItemPositionSet",
    "OverlapMeasure",
    "HellingerSquared",
    "PowerOverlap",
    "FDivergenceOverlap",
    "ConcaveOverlap",
    "CustomMeasure",
    "validate_instance",
    "induced_distribution",
    "seq_objective",
    "earliest",
    "fg_set",
    "hatfg_set",
]


class ValidationError(ValueError):
    """An instance or argument violates a structural invariant."""


def ordered_sum(values):
    """Left-to-right total from the int 0: the bits of ``sum`` before Python
    3.12 (whose ``sum`` compensates float rounding). Every float total uses it."""
    total = 0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class Subdistribution:
    """Sparse nonnegative genre-weight vector with total mass at most 1.

    Only nonzero entries are stored; an absent genre has weight 0.
    """

    weights: Mapping[str, float]

    def __post_init__(self):
        clean = {}
        for g, v in self.weights.items():
            v = float(v)
            if v > 0:
                clean[g] = v
            elif v != 0:
                raise ValidationError(f"negative or NaN mass {v} for genre {g!r}")
        total = ordered_sum(clean.values())
        if not total <= 1 + TOL:  # also rejects +inf
            raise ValidationError(f"mass {total} exceeds 1")
        object.__setattr__(self, "weights", clean)

    @classmethod
    def from_positive(cls, weights: dict[str, float]) -> Subdistribution:
        """Wrap positive float masses unchecked; their total is left to the caller."""
        self = object.__new__(cls)
        object.__setattr__(self, "weights", weights)
        return self

    def get(self, genre: str) -> float:
        return self.weights.get(genre, 0.0)

    def total(self) -> float:
        return ordered_sum(self.weights.values())

    def is_full(self) -> bool:
        return abs(self.total() - 1.0) <= TOL

    def items(self):
        return self.weights.items()


@dataclass(frozen=True)
class PositionWeights:
    """Attention weights w_1 >= w_2 >= ... >= w_k >= 0 summing to 1."""

    w: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.w)
        if not w:
            raise ValidationError("weights must be nonempty")
        if not all(math.isfinite(v) for v in w):
            raise ValidationError("weights must be finite")
        if any(v < 0 for v in w):
            raise ValidationError("weights must be nonnegative")
        for a, b in zip(w, w[1:]):
            if a < b - TOL:
                raise ValidationError("weights not weakly decreasing")
        total = ordered_sum(w)
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"weights sum to {total}, expected 1")
        if abs(total - 1.0) > TOL:
            w = tuple(v / total for v in w)
        object.__setattr__(self, "w", w)

    @property
    def k(self) -> int:
        return len(self.w)

    def __getitem__(self, position: int) -> float:
        """Weight at 1-based position; 0 beyond the list length."""
        if position < 1:
            raise IndexError(position)
        return self.w[position - 1] if position <= len(self.w) else 0.0


@dataclass(frozen=True, eq=False)
class DenseCore:
    """Dense arrays behind every objective of one instance.

    ``p`` is the target over the sorted ``genres``. Each row of ``Q`` is the
    genre distribution of one item, in catalog order, followed in discrete
    mode by a unit row per sorted genre. ``item_row`` maps item ids to their
    rows; ``row`` maps list elements: item ids and, in discrete mode, genre ids.
    ``w`` holds the position weights. Every objective is ``G`` between ``p``
    and a mixture over all of ``genres``.
    """

    genres: tuple[str, ...]
    p: np.ndarray
    Q: np.ndarray
    w: np.ndarray
    item_row: Mapping[str, int]
    row: Mapping[str, int]

    @staticmethod
    def blank(genres, n_items: int, mode: str) -> np.ndarray:
        """``Q`` with zero item rows and, in discrete mode, a unit row per genre."""
        Q = np.zeros((n_items + len(genres) * (mode == "discrete"), len(genres)))
        np.fill_diagonal(Q[n_items:], 1.0)
        return Q

    @classmethod
    def of(cls, inst: Instance) -> DenseCore:
        """The dense core of the validated ``inst``: on the ``Q`` of a loaded
        instance (:meth:`Instance.of_rows`), else its item dicts scattered."""
        genres = tuple(sorted(inst.genres))
        m, n_items = len(genres), len(inst.item_ids)
        gidx = dict(zip(genres, range(m)))
        if "_rows" in vars(inst):
            Q = vars(inst)["_rows"][0]
        else:
            dists = [d.weights for _, d in inst.items]
            Q = cls.blank(genres, n_items, inst.mode)
            # all item masses in one scatter, at flat index row * m + column
            flat = np.arange(n_items).repeat(list(map(len, dists))) * m
            flat += np.fromiter(map(gidx.__getitem__, chain.from_iterable(dists)),
                                int, len(flat))
            np.put(Q, flat, np.fromiter(chain.from_iterable(map(dict.values, dists)),
                                        float, len(flat)))
        p = np.array([inst.target.get(g) for g in genres])
        item_row = dict(zip(inst.item_ids, range(n_items)))
        row = item_row
        if inst.mode == "discrete":
            row = {**item_row, **{g: n_items + n for g, n in gidx.items()}}
        w = np.array(inst.weights.w)
        for a in (p, Q, w):
            a.setflags(write=False)
        return cls(genres, p, Q, w, item_row, row)

    def mixture(self, rows: list[int], weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights[r] * Q[rows[r]]``, added in the order given."""
        if not rows:
            return np.zeros(len(self.genres))
        # accumulate adds strictly in order, whatever the array shape
        return np.add.accumulate(weights[:, None] * self.Q.take(rows, 0), axis=0)[-1]

    def pairs_value(self, G: "OverlapMeasure", pairs, first_only: bool) -> float:
        """G on the mixture of (item, position) pairs: fg with ``first_only``
        (each item at its earliest position only), else hatfg (every pair;
        the mass may exceed 1). Pairs are added in (position, item) order,
        whatever order ``pairs`` iterates in (a frozenset's varies with the
        hash seed), so the pairs of a list add up as :meth:`mixture` adds it.
        """
        if first_only:
            pairs = earliest(pairs).items()
        pairs = sorted(pairs, key=lambda e: (e[1], e[0]))
        q = self.mixture([self.item_row[i] for i, _ in pairs],
                         self.w[[j - 1 for _, j in pairs]])
        return float(G.value(self.p, q))


@dataclass(frozen=True)
class Instance:
    """An item catalog, target genre distribution, and position weights.

    In ``discrete`` mode each item is a point mass on one genre and the
    optimization universe is the genre set itself; in ``distributional``
    mode items carry arbitrary genre mixtures and the universe is the
    item catalog.

    A loaded instance (:meth:`of_rows`) holds its item masses only in its
    dense core's ``Q`` and builds ``items`` from them on first access, as
    equality, ``repr``, ``dataclasses.replace`` and the writers read them;
    the solvers and :func:`validate_instance` read ``item_ids`` and ``Q``.
    """

    genres: tuple[str, ...]
    target: Subdistribution
    items: tuple[tuple[str, Subdistribution], ...]
    weights: PositionWeights
    mode: str = "distributional"

    @classmethod
    def of_rows(cls, genres: tuple[str, ...], target: Subdistribution, ids: list[str],
                dists: list[dict], masses: np.ndarray, weights: PositionWeights,
                mode: str) -> Instance | None:
        """The instance whose items ``ids`` have the dicts ``dists``, with their
        positive float ``masses`` end to end, if the items all write the same
        keys or each its keys in sorted genre order, all declared; else None.
        It holds the masses only in the rows of its core's ``Q``, in one slice
        assignment or one scatter, and builds ``items`` when first read."""
        gidx = {g: n for n, g in enumerate(sorted(genres))}
        keys = list(dists[0]) if dists else []
        if all(list(d) == keys for d in dists):
            order = list(map(gidx.get, keys))
            if None in order:
                return None
            Q = DenseCore.blank(genres, len(dists), mode)
            Q[:len(dists), order] = masses.reshape(len(dists), len(keys))
        else:
            cols = np.fromiter(map(gidx.get, chain.from_iterable(dists), repeat(-1)),
                               int, len(masses))
            rows = np.arange(len(dists)).repeat(list(map(len, dists)))
            if cols.min() < 0 or not (np.diff(cols)[rows[1:] == rows[:-1]] > 0).all():
                return None
            Q, order = DenseCore.blank(genres, len(dists), mode), range(len(gidx))
            Q[rows, cols] = masses
        self = object.__new__(cls)
        vars(self).update(genres=genres, target=target, weights=weights, mode=mode,
                          item_ids=tuple(ids), _rows=(Q, order))
        return self

    def __getattr__(self, name: str):
        # reached only for an attribute not set: the items of a loaded instance
        rows = vars(self).get("_rows") if name == "items" else None
        if rows is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        (Q, order), genres = rows, sorted(self.genres)
        keys = [genres[c] for c in order]
        dists = ({g: v for g, v in zip(keys, row) if v}
                 for row in Q[:len(self.item_ids), order].tolist())
        items = vars(self)["items"] = tuple(
            zip(self.item_ids, map(Subdistribution.from_positive, dists)))
        return items

    @property
    def k(self) -> int:
        return self.weights.k

    @cached_property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.items)

    @cached_property
    def dense(self) -> DenseCore:
        """The dense core of a validated instance, built on first use and kept."""
        return DenseCore.of(self)

    def universe(self) -> tuple[str, ...]:
        """Sorted element universe: genres in discrete mode, items otherwise."""
        if self.mode == "discrete":
            return tuple(sorted(self.genres))
        return tuple(sorted(self.item_ids))


@dataclass(frozen=True)
class Sequence:
    """An ordered recommendation list of item ids (or genre ids)."""

    entries: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def append(self, element: str) -> "Sequence":
        return Sequence(self.entries + (element,))


@dataclass(frozen=True)
class ItemPositionSet:
    """A subset of (item-id, position) pairs, positions 1-based."""

    pairs: frozenset[tuple[str, int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for _, j in self.pairs:
            if not isinstance(j, int) or j < 1:
                raise ValidationError(f"bad position {j}")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def earliest(pairs) -> dict[str, int]:
    """Earliest position of each item, in the order items first appear."""
    first: dict[str, int] = {}
    for i, j in pairs:
        if i not in first or j < first[i]:
            first[i] = j
    return first


# ---------------------------------------------------------------------------
# Overlap measures
# ---------------------------------------------------------------------------


def _row_sums(X: np.ndarray) -> np.ndarray:
    """``np.sum`` of each row of ``X``, bit for bit, in one reduction.

    numpy adds fewer than 8 terms left to right on either layout, fastest
    F-ordered (genre-major, as the solvers pass them); a C-ordered narrow
    block is copied first, up to a fifth slower at about 65k rows of 5
    genres. 8 or more terms are added pairwise, which ``sum(axis=1)``
    reproduces on a C-ordered matrix only, so wide rows are summed from a
    C-ordered copy (no copy when ``X`` is C-ordered).
    """
    layout = np.ascontiguousarray if X.shape[1] >= 8 else np.asfortranarray
    return np.add.reduce(layout(X), axis=1)  # ndarray.sum minus its python wrapper


class OverlapMeasure:
    """A similarity on (distribution p, subdistribution q) pairs.

    Subclasses implement one of :meth:`value` and :meth:`value_batch` on
    numpy arrays aligned to the instance's genres; each method's default
    calls the other. Each shipped measure adds 0 on a genre where p = q = 0,
    though from 8 genres on such a genre can move the last bits (pairwise sums).
    """

    name: str = "overlap"

    def value(self, p: np.ndarray, q: np.ndarray) -> float:
        """The overlap of ``p`` and ``q``: the one-row case of :meth:`value_batch`."""
        return float(self.value_batch(p, q[None])[0])

    def value_batch(self, p: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """:meth:`value` against each row of ``Q``; the default is a python loop."""
        if type(self).value is OverlapMeasure.value:  # neither method defined
            raise NotImplementedError(f"{type(self).__name__} defines no overlap")
        return np.array([self.value(p, q) for q in Q])


class HellingerSquared(OverlapMeasure):
    """Sum of sqrt(p(x) q(x)); maximum value 1, attained only at q = p."""

    name = "hellinger"

    def value_batch(self, p, Q):
        X = Q * p
        np.sqrt(X, out=X)
        return _row_sums(X)


class PowerOverlap(OverlapMeasure):
    """Sum of p(x)^(1-beta) q(x)^beta for beta in (0, 1)."""

    name = "power"

    def __init__(self, beta: float):
        if not 0 < beta < 1:
            raise ValidationError(f"beta must lie in (0,1), got {beta}")
        self.beta = float(beta)

    def value_batch(self, p, Q):
        b = self.beta
        X = np.maximum(Q, 0.0)
        X **= b
        X *= p ** (1 - b)
        return _row_sums(X)


class FDivergenceOverlap(OverlapMeasure):
    """d* minus the f-divergence sum f(p(x)/q(x)) q(x).

    The q(x) -> 0+ termwise limit is p(x) * lim f(t)/t; generators whose
    limit diverges produce an unbounded divergence and are rejected.
    """

    name = "f-divergence"

    def __init__(self, f: Callable[[float], float], d_star: float):
        self.f = f
        self.d_star = float(d_star)
        s1 = f(1e8) / 1e8
        s2 = f(1e14) / 1e14
        if not (math.isfinite(s2) and abs(s2 - s1) <= 1e-4 * (1 + abs(s2))):
            raise ValidationError("f(t)/t diverges; divergence is unbounded")
        self._slope = s2

    def value(self, p, q):
        total = 0.0
        for pi, qi in zip(p, q):
            if qi > 0:
                total += self.f(pi / qi) * qi
            elif pi > 0:
                total += pi * self._slope
        return self.d_star - total


class ConcaveOverlap(OverlapMeasure):
    """Sum of h(q(x)) / h'(p(x)) for a nonnegative non-decreasing concave h."""

    name = "concave"

    def __init__(self, h: Callable[[float], float], h_prime: Callable[[float], float]):
        for x in (0.25, 0.5, 1.0):
            if h(x) < 0:
                raise ValidationError("h must be nonnegative")
            if h_prime(x) <= 0:
                raise ValidationError("h' must be positive on (0,1]")
        self.h = h
        self.h_prime = h_prime

    def value(self, p, q):
        total = 0.0
        for pi, qi in zip(p, q):
            hp = self.h_prime(pi) if pi > 0 else math.inf
            if math.isinf(hp):
                continue
            total += self.h(max(qi, 0.0)) / hp
        return total


class CustomMeasure(OverlapMeasure):
    """Arbitrary array-valued similarity; used for demos and negative tests."""

    def __init__(self, name: str, fn: Callable[[np.ndarray, np.ndarray], float]):
        self.name = name
        self._fn = fn

    def value(self, p, q):
        return float(self._fn(p, q))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def validate_instance(inst: Instance) -> Instance:
    """Check all structural invariants, returning the instance unchanged.

    Raises :class:`ValidationError` describing the first violation found:
    of the item checks, the first that fails, at the first item it flags.
    A loaded instance (:meth:`Instance.of_rows`) is checked with numpy masks
    over its rows of ``Q``, each item's columns added left to right in key
    order: ``ordered_sum``'s bits, as an unwritten key adds 0.0.
    """
    genre_set = set(inst.genres)
    if len(genre_set) != len(inst.genres):
        raise ValidationError("duplicate genre ids")
    if not inst.target.is_full():
        raise ValidationError(f"target mass {inst.target.total()} != 1")
    if not inst.target.weights.keys() <= genre_set:
        raise ValidationError("target uses undeclared genres")
    ids = inst.item_ids
    discrete = inst.mode == "discrete"
    rows = vars(inst).get("_rows")
    if rows is None:
        dists = [d.weights for _, d in inst.items]
        totals = [ordered_sum(d.values()) for d in dists]  # summed as total() does
        off = [abs(t - 1.0) > TOL for t in totals]
        over = [t > 1 + TOL for t in totals] if True in off else []
        undeclared = ([] if genre_set.issuperset(chain.from_iterable(dists)) else
                      [not d.keys() <= genre_set for d in dists])
        spread = [len(d) != 1 for d in dists] if discrete else []
    else:  # the same verdicts as masks; every mass is positive and declared
        Q, order = rows
        sums, sizes = np.zeros(len(ids)), np.zeros(len(ids), int)
        for c in order:
            sums += Q[:len(ids), c]
            if discrete:
                sizes += Q[:len(ids), c] > 0
        off, over = np.abs(sums - 1.0) > TOL, sums > 1 + TOL
        undeclared = []
        spread = sizes != 1 if discrete else []
    for fails, message in (  # in a scan's order; a cheaper test may skip a check
            (over, "mass {t} exceeds 1"),
            ([] if len(set(ids)) == len(ids) else
             [ids.index(i) != n for n, i in enumerate(ids)], "duplicate item id {i!r}"),
            (undeclared, "item {i!r} uses undeclared genres"),
            (off, "item {i!r} mass {t} != 1"),
            (spread, "item {i!r} is not a point mass in discrete mode"),
            # a list element that is a genre id reads the genre's unit row
            ([i in genre_set for i in ids] if discrete else [],
             "item id {i!r} is also a genre id in discrete mode")):
        if True in fails:
            n = list(fails).index(True)
            # from the rows, an empty item's total is ordered_sum's int 0
            t = totals[n] if rows is None else float(sums[n]) if Q[n].any() else 0
            raise ValidationError(message.format(i=ids[n], t=t))
    if inst.mode not in ("distributional", "discrete"):
        raise ValidationError(f"unknown mode {inst.mode!r}")
    return inst


def _list_mixture(seq: Sequence, inst: Instance) -> np.ndarray:
    if len(seq) > inst.k:
        raise ValidationError(f"sequence longer than k={inst.k}")
    core = inst.dense
    return core.mixture([core.row[e] for e in seq], core.w[:len(seq)])


def induced_distribution(seq: Sequence, inst: Instance) -> Subdistribution:
    """Weighted genre mixture of a (possibly partial) list.

    Position j contributes w_j times the distribution of the element at j.
    Genre-id entries (discrete mode) count as point masses.
    """
    q = _list_mixture(seq, inst)
    return Subdistribution(dict(zip(inst.dense.genres, q.tolist())))


def seq_objective(G: OverlapMeasure, seq: Sequence, inst: Instance) -> float:
    """Overlap between the target and the list's induced distribution."""
    return float(G.value(inst.dense.p, _list_mixture(seq, inst)))


def fg_set(G: OverlapMeasure, R: ItemPositionSet, inst: Instance) -> float:
    """Set extension where each item contributes at its earliest position only."""
    _check_pairs(R, inst)
    return inst.dense.pairs_value(G, R, first_only=True)


def hatfg_set(G: OverlapMeasure, R: ItemPositionSet, inst: Instance) -> float:
    """Set extension where every (item, position) occurrence contributes."""
    _check_pairs(R, inst)
    return inst.dense.pairs_value(G, R, first_only=False)


def _check_pairs(R: ItemPositionSet, inst: Instance) -> None:
    rows = inst.dense.item_row
    for i, j in R:
        if i not in rows:
            raise ValidationError(f"unknown item {i!r}")
        if j > inst.k:
            raise ValidationError(f"position {j} exceeds k={inst.k}")
