"""Worked case studies and the shared random-instance generator.

Two fixed scenarios are reproduced to published precision: the four-item
order-sensitivity example under the squared-Hellinger overlap, and the
two-movie KL/maximum-marginal-relevance table showing that log-based
heuristics flip sign and mislead greedy selection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    CustomMeasure,
    HellingerSquared,
    Instance,
    PositionWeights,
    Sequence,
    Subdistribution,
    ValidationError,
    ordered_sum,
    seq_objective,
    validate_instance,
)

__all__ = [
    "KlMmrInstance",
    "kl_mmr_objective",
    "kl_pseudo_measure",
    "repro_appendix_b",
    "repro_appendix_c",
    "order_flip_instance",
    "GenParams",
    "generate_instances",
    "instance_stream",
    "KL_MMR_TABLE",
    "ORDER_FLIP_VALUES",
]


# ---------------------------------------------------------------------------
# KL / maximum-marginal-relevance counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KlMmrInstance:
    """Two movies over four genres with an epsilon-parameterized table.

    The second position weight is fixed at 1 and the weights are left
    unnormalized on purpose; the sign behavior under scaling is the point.
    """

    target: tuple[float, float, float, float]
    eps: float
    w1: float

    def __post_init__(self):
        if not 0 < self.eps < 1 / 3:
            raise ValidationError("eps must lie in (0, 1/3)")
        if self.w1 <= 1:
            raise ValidationError("w1 must exceed 1")

    def item_table(self) -> dict[str, tuple[float, float, float, float]]:
        e = self.eps
        return {
            "i1": (0.5 * (1 - e), 0.25 * (1 - e), 0.25 * (1 - e), e),
            "i2": (0.5 * (1 - e), 0.5 * (1 - e), e / 2, e / 2),
        }


def kl_mmr_objective(inst: KlMmrInstance, seq: Sequence) -> float:
    """Log-of-weighted-mixture heuristic; natural log, may be negative.

    A zero inner mixture yields -inf.
    """
    table = inst.item_table()
    weights = (inst.w1, 1.0)
    total = 0.0
    for g in range(4):
        inner = ordered_sum(weights[r] * table[item][g]
                            for r, item in enumerate(seq) if r < 2)
        if inner <= 0:
            return -math.inf
        total += inst.target[g] * math.log(inner)
    return total


def kl_pseudo_measure() -> CustomMeasure:
    """The log heuristic wrapped as a (non-)overlap measure for axiom checks."""

    def fn(p: np.ndarray, q: np.ndarray) -> float:
        with np.errstate(divide="ignore"):
            logs = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), -np.inf)
        masked = np.where(p > 0, logs, 0.0)
        return float(np.sum(p * masked))

    return CustomMeasure("kl-mmr-demo", fn)


# Published (w1, ALG, OPT) rows: ALG = f(i1 i2), OPT = f(i2 i1).
KL_MMR_TABLE: tuple[tuple[float, float, float], ...] = (
    (1.1, -0.823134, -0.797737),
    (1.5, -0.691859, -0.585156),
    (2.0, -0.549794, -0.371873),
    (3.5, -0.201250, 0.114023),
    (5.0, 0.0311358, 0.386387),
    (10.0, 0.580034, 1.01213),
    (100.0, 2.73099, 3.20940),
)

_KL_TARGET = (0.05, 0.9, 0.025, 0.025)
_KL_EPS = 1e-10


@dataclass(frozen=True)
class KlMmrRow:
    w1: float
    alg: float
    opt: float
    alg_expected: float
    opt_expected: float
    greedy_picks_i1: bool
    optimum_starts_i2: bool

    @property
    def ok(self) -> bool:
        """Numeric agreement with the published row, 1e-4 relative."""
        rel = lambda a, b: abs(a - b) / abs(b)
        return (rel(self.alg, self.alg_expected) <= 1e-4
                and rel(self.opt, self.opt_expected) <= 1e-4)


def repro_appendix_b() -> list[KlMmrRow]:
    """Recompute the seven-row ALG/OPT table for the log heuristic."""
    rows = []
    for w1, alg_exp, opt_exp in KL_MMR_TABLE:
        inst = KlMmrInstance(_KL_TARGET, _KL_EPS, w1)
        alg = kl_mmr_objective(inst, Sequence(("i1", "i2")))
        opt = kl_mmr_objective(inst, Sequence(("i2", "i1")))
        f_i1 = kl_mmr_objective(inst, Sequence(("i1",)))
        f_i2 = kl_mmr_objective(inst, Sequence(("i2",)))
        rows.append(KlMmrRow(
            w1=w1, alg=alg, opt=opt,
            alg_expected=alg_exp, opt_expected=opt_exp,
            greedy_picks_i1=f_i1 > f_i2,
            optimum_starts_i2=opt > alg,
        ))
    return rows


# ---------------------------------------------------------------------------
# Order-sensitivity example (squared Hellinger)
# ---------------------------------------------------------------------------


ORDER_FLIP_VALUES: tuple[tuple[tuple[str, str, str], float], ...] = (
    (("i3", "i1", "i2"), 0.956),
    (("i3", "i2", "i1"), 0.940),
    (("i4", "i1", "i2"), 0.974),
    (("i4", "i2", "i1"), 0.983),
)


def order_flip_instance() -> Instance:
    """Two genres, four items, weights (0.5, 0.3, 0.2), uniform target."""
    g = ("g1", "g2")
    items = (
        ("i1", Subdistribution({"g1": 0.4, "g2": 0.6})),
        ("i2", Subdistribution({"g1": 0.8, "g2": 0.2})),
        ("i3", Subdistribution({"g1": 1.0})),
        ("i4", Subdistribution({"g2": 1.0})),
    )
    inst = Instance(
        genres=g,
        target=Subdistribution({"g1": 0.5, "g2": 0.5}),
        items=items,
        weights=PositionWeights((0.5, 0.3, 0.2)),
        mode="distributional",
    )
    return validate_instance(inst)


@dataclass(frozen=True)
class OrderFlipRow:
    sequence: tuple[str, str, str]
    value: float
    expected: float

    @property
    def ok(self) -> bool:
        return abs(self.value - self.expected) <= 1e-3


def repro_appendix_c() -> list[OrderFlipRow]:
    """Evaluate the four published lists under the squared-Hellinger overlap."""
    inst = order_flip_instance()
    G = HellingerSquared()
    return [
        OrderFlipRow(seq, seq_objective(G, Sequence(seq), inst), expected)
        for seq, expected in ORDER_FLIP_VALUES
    ]


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    min_genres: int = 2
    max_genres: int = 5
    min_items: int = 2
    max_items: int = 6
    min_k: int = 1
    max_k: int = 5

    def __post_init__(self):
        if min(self.min_genres, self.min_items, self.min_k) < 1:
            raise ValidationError("bounds must be positive")


def _random_full(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.uniform(0.0, 1.0, size=n)
    return raw / raw.sum()


def instance_stream(params: GenParams, mode: str, seed: int) -> Iterator[Instance]:
    """Validated instances, drawn one at a time; deterministic for a fixed seed.

    Targets and item mixtures are normalized independent uniforms; weights
    are sorted-descending normalized uniforms. Discrete instances get one
    point-mass item per genre. The stream is endless; ``itertools.islice`` it.
    """
    if mode not in ("distributional", "discrete"):
        raise ValidationError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    return (_draw(rng, params, mode) for _ in itertools.count())


def generate_instances(params: GenParams, mode: str, seed: int, n: int) -> list[Instance]:
    """The first n instances of :func:`instance_stream`, as a list."""
    return list(itertools.islice(instance_stream(params, mode, seed), n))


def _draw(rng: np.random.Generator, params: GenParams, mode: str) -> Instance:
    n_genres = int(rng.integers(params.min_genres, params.max_genres + 1))
    k = int(rng.integers(params.min_k, params.max_k + 1))
    genres = tuple(f"g{i + 1}" for i in range(n_genres))
    target = Subdistribution(dict(zip(genres, _random_full(rng, n_genres))))
    weights = np.sort(rng.uniform(0.0, 1.0, size=k))[::-1]
    weights = weights / weights.sum()
    if mode == "discrete":
        items = tuple((f"i{i + 1}", Subdistribution({g: 1.0}))
                      for i, g in enumerate(genres))
    else:
        n_items = int(rng.integers(max(params.min_items, k),
                                   max(params.max_items, k) + 1))
        # one draw for all rows is the same stream as one draw per row;
        # a row total on the C-ordered block has each row's 1-D sum bits
        raw = rng.uniform(0.0, 1.0, size=(n_items, n_genres))
        raw /= raw.sum(axis=1, keepdims=True)
        wrap = (Subdistribution.from_positive if (raw > 0).all()
                else Subdistribution)  # a drawn 0.0 is dropped
        items = tuple((f"i{i + 1}", wrap(dict(zip(genres, row))))
                      for i, row in enumerate(raw.tolist()))
    return validate_instance(Instance(
        genres=genres, target=target, items=items,
        weights=PositionWeights(tuple(weights)), mode=mode))
