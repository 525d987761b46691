"""Golden `generate_instances` output for a fixed grid of seeds and shapes.

The grid covers both modes, every genre count from 1 to 40 (so item rows of
8 or more genres, whose totals numpy adds pairwise, are included), the
default mixed shape, and the 1000-item, 20-genre, k = 20 shape on several
seeds. Every target mass, item mass and position weight is stored as
``float.hex`` and must come back bit for bit, as a python float, in the
same genre and item order.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_generate.py
"""

import json
import sys
from pathlib import Path

from caliblist.core import Instance
from caliblist.repro import GenParams, generate_instances

GOLDEN = Path(__file__).with_name("golden_generate_records.json")


def _hex(d) -> str:
    """A dist's ``genre=mass`` entries in stored order, masses as ``float.hex``."""
    for v in d.weights.values():
        assert type(v) is float, type(v)
    return " ".join(f"{g}={v.hex()}" for g, v in d.items())


def _record(inst: Instance) -> dict:
    return {"genres": list(inst.genres), "mode": inst.mode,
            "target": _hex(inst.target),
            "weights": " ".join(float(v).hex() for v in inst.weights.w),
            "items": [[i, _hex(d)] for i, d in inst.items]}


def cases():
    """Yield (name, params, mode, seed, count)."""
    for mode in ("distributional", "discrete"):
        for g in range(1, 41):
            params = GenParams(min_genres=g, max_genres=g, min_items=1,
                               max_items=8, min_k=1, max_k=6)
            yield f"{mode} genres={g}", params, mode, 100 + g, 2
        for seed in range(5):
            yield f"{mode} default seed={seed}", GenParams(), mode, seed, 6
    large = GenParams(min_genres=20, max_genres=20, min_items=1000,
                      max_items=1000, min_k=20, max_k=20)
    for seed in (7, 8, 9):
        yield f"distributional 1000x20 k=20 seed={seed}", large, "distributional", seed, 1


def record_instances() -> list[dict]:
    return [{"case": name,
             "instances": [_record(inst) for inst in
                           generate_instances(params, mode, seed, count)]}
            for name, params, mode, seed, count in cases()]


def test_generated_instances_match_golden():
    got = record_instances()
    want = json.loads(GOLDEN.read_text())
    assert len(got) == len(want) == 2 * (40 + 5) + 3
    for g, w in zip(got, want):
        assert g == w, g["case"]


if __name__ == "__main__":
    records = record_instances()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
