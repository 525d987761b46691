"""Golden `pipage_round` supports for a fixed seeded set of points.

The points are averages of 1-5 random-weight `max_weight_basis` bases on
both matroids, over every item count 1-6 and k = 1-6; 30 % of them are
scaled by 0.97, so their columns do not fill and entries reach the
Bernoulli tail. Two hand-made laminar points from `tests/test_matroid.py`
come first. Larger points follow, so a swap order that drifts only after
many entries in a column shows: at 10, 25 and 40 items and k = 2, 5 and 8,
the uniform point 1/n and two averages of 5-20 random bases, the second
scaled by 0.97. Each point is rounded at seeds 0-2, and the supports must match
the stored ones exactly, so a change to the swap order, the draws or the
snapping fails here.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_rounding.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from caliblist.matroid import (
    FractionalPoint,
    LaminarMatroid,
    PartitionMatroid,
    max_weight_basis,
    pipage_round,
)

GOLDEN = Path(__file__).with_name("golden_rounding_records.json")

# random points per (matroid, item count, k)
_PER_SHAPE = 9


def _bases(m, rng, low: int, high: int) -> list[frozenset]:
    """``low``-``high`` bases of ``m``, each for random pair weights."""
    ground = m.ground_set()
    return [max_weight_basis(m, dict(zip(ground, rng.random(len(ground)).tolist())))
            for _ in range(int(rng.integers(low, high + 1)))]


def _average(m, bases: list[frozenset], scale: float) -> FractionalPoint:
    """``scale`` times the average of the bases' 0/1 points."""
    return FractionalPoint({e: scale * sum(e in B for B in bases) / len(bases)
                            for e in m.ground_set()})


def points():
    """Yield (name, matroid, point), always in the same order."""
    yield ("stacked-half", LaminarMatroid(tuple(f"i{n}" for n in range(5)), 5),
           FractionalPoint({("i2", 1): .5, ("i0", 2): .5, ("i1", 2): .5,
                            ("i3", 2): .5, ("i0", 3): .5, ("i2", 3): .5,
                            ("i2", 4): .5, ("i4", 5): .5, ("i3", 5): 1.0}))
    yield ("C@2", LaminarMatroid(("A", "B", "C", "D"), 3),
           FractionalPoint({("B", 1): 0.5, ("C", 2): 0.3, ("D", 2): 1.0,
                            ("A", 3): 0.6}))
    rng = np.random.default_rng(2024)
    for cls in (PartitionMatroid, LaminarMatroid):
        for n_items in range(1, 7):
            for k in range(1, 7):
                m = cls(tuple(f"i{n}" for n in range(n_items)), k)
                for rep in range(_PER_SHAPE):
                    bases = _bases(m, rng, 1, 5)
                    scale = 0.97 if rng.random() < 0.3 else 1.0
                    yield (f"{cls.__name__} n={n_items} k={k} #{rep}", m,
                           _average(m, bases, scale))
    rng = np.random.default_rng(2025)
    for cls in (PartitionMatroid, LaminarMatroid):
        for n_items in (10, 25, 40):
            for k in (2, 5, 8):
                m = cls(tuple(f"i{n}" for n in range(n_items)), k)
                name = f"{cls.__name__} n={n_items} k={k}"
                yield (f"{name} uniform", m,
                       FractionalPoint(dict.fromkeys(m.ground_set(), 1 / n_items)))
                yield f"{name} #0", m, _average(m, _bases(m, rng, 5, 20), 1.0)
                yield f"{name} #1", m, _average(m, _bases(m, rng, 5, 20), 0.97)


def record_supports() -> list[dict]:
    """Each point's rounded support at seeds 0-2, as 'item@position' lists."""
    return [{"point": name,
             "supports": [[f"{i}@{j}" for i, j in sorted(pipage_round(m, x, None, s))]
                          for s in range(3)]}
            for name, m, x in points()]


def test_rounded_supports_match_golden():
    got = record_supports()
    want = json.loads(GOLDEN.read_text())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    records = record_supports()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
