"""Golden `pipage_round` supports for a fixed seeded set of points.

The points are averages of 1-5 random-weight `max_weight_basis` bases on
both matroids, over every item count 1-6 and k = 1-6; 30 % of them are
scaled by 0.97, so their columns do not fill and entries reach the
Bernoulli tail. Two hand-made laminar points from `tests/test_matroid.py`
come first. Each point is rounded at seeds 0-2, and the supports must match
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
                ground = m.ground_set()
                for rep in range(_PER_SHAPE):
                    bases = [max_weight_basis(
                        m, dict(zip(ground, rng.random(len(ground)).tolist())))
                        for _ in range(int(rng.integers(1, 6)))]
                    scale = 0.97 if rng.random() < 0.3 else 1.0
                    x = {e: scale * sum(e in B for B in bases) / len(bases)
                         for e in ground}
                    name = f"{cls.__name__} n={n_items} k={k} #{rep}"
                    yield name, m, FractionalPoint(x)


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
