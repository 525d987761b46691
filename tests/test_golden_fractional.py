"""Golden `continuous_greedy` fractional points for a fixed seeded corpus.

Each case draws a distributional instance with 2-12 genres (so both of
`_row_sums`' paths, below and from 8 genres, are taken), 1-6 items and
k = 1-5; about a third of the item and target masses are zero, so some
genres lie outside both supports. Every instance is solved on both
matroids (fg on the laminar one, hatfg on the partition one) under the
squared-Hellinger overlap and `power:0.25`, with 1-6 steps and 1-40
samples. The points must equal the stored ones with `==`, in ground-set
order, so any change to the sampled draws, the batched gains or the basis
scan that moves one coordinate fails here.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_fractional.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from caliblist import matroid
from caliblist.core import (
    HellingerSquared,
    Instance,
    PositionWeights,
    PowerOverlap,
    Subdistribution,
    validate_instance,
)
from caliblist.matroid import (
    LaminarMatroid,
    PartitionMatroid,
    continuous_greedy,
    fg_function,
    hatfg_function,
)

GOLDEN = Path(__file__).with_name("golden_fractional_records.json")

# seeded instances per genre count; each is solved 4 ways
_PER_GENRES = 14
_MEASURES = (("hellinger", HellingerSquared()), ("power:0.25", PowerOverlap(0.25)))
_SOLVERS = ((LaminarMatroid, fg_function), (PartitionMatroid, hatfg_function))


def _masses(rng, n):
    """n masses summing to 1, about a third of them exactly 0."""
    raw = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) >= 1 / 3)
    if raw.sum() == 0:
        raw[int(rng.integers(0, n))] = 1.0
    return raw / raw.sum()


def cases():
    """Yield (name, instance, matroid, set function, steps, samples, seed)."""
    rng = np.random.default_rng(2026)
    for n_genres in range(2, 13):
        genres = tuple(f"g{n + 1}" for n in range(n_genres))
        for rep in range(_PER_GENRES):
            k = int(rng.integers(1, 6))
            weights = np.sort(rng.uniform(0.0, 1.0, size=k))[::-1]
            inst = validate_instance(Instance(
                genres=genres,
                target=Subdistribution(dict(zip(genres, _masses(rng, n_genres)))),
                items=tuple((f"i{n + 1}",
                             Subdistribution(dict(zip(genres, _masses(rng, n_genres)))))
                            for n in range(int(rng.integers(1, 7)))),
                weights=PositionWeights(tuple(weights / weights.sum()))))
            for measure, G in _MEASURES:
                for cls, function in _SOLVERS:
                    steps = int(rng.integers(1, 7))
                    samples = int(rng.integers(1, 41))
                    seed = int(rng.integers(0, 2 ** 31))
                    name = (f"{cls.__name__} {measure} genres={n_genres} #{rep} "
                            f"steps={steps} samples={samples} seed={seed}")
                    yield (name, inst, cls(inst.item_ids, inst.k),
                           function(G, inst), steps, samples, seed)


def record_points(selected=lambda n: True) -> list[dict]:
    """Each selected case's fractional point, in ground-set order."""
    records = []
    for n, (name, _, m, F, steps, samples, seed) in enumerate(cases()):
        if selected(n):
            x = continuous_greedy(F, m, steps, samples, seed).x
            records.append({"case": name, "x": [x[e] for e in m.ground_set()]})
    return records


def test_fractional_points_match_golden():
    got = record_points()
    want = json.loads(GOLDEN.read_text())
    assert len(got) == len(want) >= 600
    for g, w in zip(got, want):
        assert g == w


def test_fractional_points_do_not_depend_on_the_chunk_size(monkeypatch):
    # a few samples per chunk, so most cases span several chunks
    monkeypatch.setattr(matroid, "_CHUNK_BYTES", 4096)
    want = json.loads(GOLDEN.read_text())
    got = record_points(lambda n: n % 5 == 0)
    assert got == want[::5]


if __name__ == "__main__":
    records = record_points()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
